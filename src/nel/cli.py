"""Command-line front end: reproducible CSV/JSON datasets for every figure
and table, plus direct access to the solvers.

All numeric payloads are serialized with 17 significant digits so a reparse
reproduces bit-identical values, and identical invocations produce
byte-identical files.  Grids are capped at 1,000,001 points, separatrix
indices at |n| <= 100,000 and a Fourier section at 2^25 sine values.  The
Painleve commands use the fixed fate window x >= -135; the eigenvalue scan
steps by 0.3 of the growth law's spacing and closes each flip to width 1e-7.
Each figure and each painleve and pseries task is a parser leaf declaring the
flags it reads, with their defaults and ranges: any other flag is a usage
error.  ``main`` runs each subcommand, times it, writes its manifest and
prints its JSON summary with the outputs.  The manifest records the
subcommand, the flags its task read (with the defaults it used), the tool
version, the wall time and the outputs.  A command given --out X writes it to
X.manifest.json, ``run --out-dir D`` to D/run.manifest.json; one given
neither (``pseries rho`` without --out) writes none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["main", "UsageError"]

_MAX_GRID = 1_000_001     # points in any grid a command builds
_MAX_DEGREE = 500         # partial-sum degree; the root finder holds d^2 values a row
_MAX_INDEX = 100_000      # |n|; n = -1e5 takes 944,976 of the trace's 5,000,000 attempts
_MAX_SINES = 2 ** 25      # (n_terms + 1) * grid, about 0.5 s; the sum holds 64 rows, 16 MB at grid 1024
_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
_CHUNK = 4096             # CSV lines formatted by one %; fourier --grid alone writes 10^6
# run --preset: each subcommand's argv, its --out given as a name in --out-dir
_PRESETS = {
    "quick": (("eigen", "--n", "1:6", "--method", "both", "--out", "eigenvalues.json"),
              ("limiting-curve", "--grid", "1001", "--out", "limit_curve.csv"),
              ("fourier", "--n-terms", "80", "--grid", "1001", "--out", "fourier.csv")),
    "figures": tuple(("figures", name, "--out", f"{name}.csv") for name in _FIGURES),
}


class UsageError(Exception):
    """Bad flags or arguments; exit code 2 with a machine-readable payload."""


def _json_dump(obj) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return format(obj, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, (int, str)):             # bool included
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _col(vs) -> list[str]:
    """Numbers as _write_csv writes them, for a column that blocks share."""
    return list(map("%.17g".__mod__, vs))


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Header, then the rows of each block (lead, columns): row i is the
    fields of the tuple lead, then entry i of each column, for i below the
    columns' common length.

    A str is written as it is, a number as "%.17g" % v: a float as
    format(v, ".17g") (nan, inf and -inf included), an int up to 2^53 in
    size as str(v).  A column's first entry decides for the whole column,
    so a column that several blocks share is formatted once (``_col``).
    The lead goes into the block's line template, each "%" in it doubled;
    columns are its "%s" and "%.17g" fields.  At most _CHUNK lines are
    formatted by one % and written at a time, so the text held stays
    bounded however long the block.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, columns in blocks:
            n, w = len(columns[0]), len(columns)
            if n == 0:
                continue
            fixed = "".join((v if isinstance(v, str) else "%.17g" % v) + "," for v in lead)
            line = fixed.replace("%", "%%") + ",".join(
                "%s" if isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
            for i in range(0, n, _CHUNK):
                m = min(_CHUNK, n - i)
                args = [None] * (m * w)
                for j, c in enumerate(columns):
                    args[j::w] = c[i:i + m]
                fh.write(line * m % tuple(args))


def _write_json(path: Path, obj) -> None:
    Path(path).write_text(_json_dump(obj) + "\n")


def _default(args, flag: str, value):
    """args.<flag>, set to value when the flag was not given, so the
    manifest records the value used."""
    if getattr(args, flag) is None:
        setattr(args, flag, value)
    return getattr(args, flag)


def _parse_range(text: str) -> list[int]:
    """'1:6' -> [1..6]; '3' -> [3]; '1,4,9' -> [1, 4, 9].  '6:1' and an
    index beyond +-_MAX_INDEX are UsageErrors, found before any list is built."""
    ranged = ":" in text
    try:
        ns = [int(v) for v in text.split(":" if ranged else ",")]
        if ranged:
            lo, hi = ns
    except ValueError as exc:
        raise UsageError(f"bad index range {text!r}") from exc
    if max(map(abs, ns)) > _MAX_INDEX:
        raise UsageError(f"index range {text!r} goes beyond +-{_MAX_INDEX}")
    if ranged:
        ns = list(range(lo, hi + 1))
        if not ns:
            raise UsageError(f"empty index range {text!r}")
    return ns


def _parse_list(text: str, flag: str, kind=float) -> list:
    """'1,2.5,4' -> [1.0, 2.5, 4.0] (or ints with kind=int); nan or inf is refused."""
    try:
        vs = [kind(v) for v in text.split(",")]
        if not all(map(math.isfinite, vs)):
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}, expected comma-separated finite numbers") from exc
    return vs


def _parse_grid(text: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}, expected start:end:step") from exc
    if not step > 0:
        raise UsageError(f"bad grid {text!r}, step must be positive")
    if not -math.inf < lo <= hi < math.inf:
        raise UsageError(f"bad grid {text!r}, need finite start <= end")
    if (hi - lo) / step + 1 > _MAX_GRID + 0.5:     # tau_scan rounds the count
        raise UsageError(f"bad grid {text!r}, more than {_MAX_GRID} points")
    return lo, hi, step


def _grid(x0: float, x1: float, h: float) -> np.ndarray:
    """x = x0 + i*h (h signed toward x1) up to x1, the last abscissa clipped
    to x1; abscissae carry no accumulated drift."""
    n = math.floor(abs(x1 - x0) / h + 1e-9)
    return np.clip(x0 + math.copysign(h, x1 - x0) * np.arange(n + 1), min(x0, x1), max(x0, x1))


def _segment_blocks(curves, x_min: float) -> list:
    """Blocks (label, a, segment) of x, y on a 0.01 grid down each segment of
    ``integrate_with_poles(a, x_min)``, for each (label, a) of curves."""
    from .painleve import integrate_with_poles

    blocks = []
    for label, a in curves:
        for si, seg in enumerate(integrate_with_poles(a, x_min)[0]):
            xs = _grid(seg.x_start, seg.x_end, 0.01)
            blocks.append(((label, a, si), (xs.tolist(), seg.sample(xs)[:, 0].tolist())))
    return blocks


# -- subcommands --------------------------------------------------------------


def _cmd_eigen(args) -> tuple[list, dict]:
    from .separatrix import _check_tol, find_eigenvalue_bisect, trace_separatrix_backward

    ns = sorted(set(_parse_range(args.n)))     # every --method: each n once, increasing
    if args.method == "bisect" and min(ns) < 1:
        raise UsageError(f"--method bisect needs every n >= 1, got {args.n!r}")
    if args.method == "backward" and args.tol is not None:
        raise UsageError("--tol applies to --method both and bisect, not backward")
    if args.method != "backward":
        try:
            _check_tol(_default(args, "tol", 1e-10), max(ns))
        except ValueError as exc:
            raise UsageError(f"--tol: {exc}") from exc
    payload = []
    for n in ns:
        a_n = bis = None
        if args.method != "bisect":
            a_n = trace_separatrix_backward(n, dense=False).y_end
        if args.method != "backward" and n >= 1:
            bis = find_eigenvalue_bisect(n, args.tol)
        payload.append({"n": n, "a_n": bis if a_n is None else a_n,
                        "method": "bisect" if a_n is None else "backward",
                        "residual": None if None in (a_n, bis) else abs(bis - a_n),
                        "tail_m": 2 * n - 1})
    for prev, rec in zip(payload, payload[1:]):
        if not rec["a_n"] > prev["a_n"]:
            raise RuntimeError(f"intercepts not increasing at n={rec['n']}")
    out = Path(args.out)
    _write_json(out, payload)
    return [out], {"count": len(payload), "a_min": payload[0]["a_n"],
                   "a_max": payload[-1]["a_n"]}


def _cmd_figures(args) -> tuple[list, dict]:
    out = Path(args.out)
    name = args.figure
    summary: dict = {"figure": name}

    if name == "fig1":
        from .cosine import forward_values

        xs = _grid(0.0, 24.0, 0.02)
        x_col = _col(xs.tolist())
        _write_csv(out, ["k", "a", "x", "y"],
                   [((k, 0.2 * k), (x_col, forward_values(0.2 * k, xs).tolist()))
                    for k in range(1, 51)])

    elif name == "fig2":
        from .separatrix import trace_separatrix_backward

        xs = _grid(0.0, 20.0, 0.02)
        x_col, blocks = _col(xs.tolist()), []
        for n in range(-3, 7):
            # the strip contracts the seed's error by e^-32 from x = 21 to 20
            traj = trace_separatrix_backward(n, x_start=21.0)
            blocks.append(((n, traj.y_end), (x_col, traj.sample(xs).tolist())))
        _write_csv(out, ["n", "a_n", "x", "y"], blocks)

    elif name == "fig3":
        from .limitcurve import implicit_Z
        from .separatrix import scaled_separatrix

        ts = [2.2 * i / 1100 for i in range(1101)]   # inside t_max >= 2.81 for n <= 4
        t_col = _col(ts)
        blocks = [((f"z_{n}",), (t_col, scaled_separatrix(n, ts))) for n in range(1, 5)]
        ts = [i / 1000 for i in range(1001)]
        blocks.append((("Z",), (ts, implicit_Z(ts).tolist())))
        _write_csv(out, ["series", "t", "value"], blocks)

    elif name == "fig4":
        from .limitcurve import implicit_Z
        from .separatrix import scaled_separatrix

        ts = [i / 2000 for i in range(2001)]
        zs, big = scaled_separatrix(args.n, ts), implicit_Z(ts).tolist()
        _write_csv(out, ["t", "z", "Z", "diff"],
                   [((), (ts, zs, big, [z - b for z, b in zip(zs, big)]))])
        summary["n"] = args.n

    elif name == "fig5":
        from .fourier import fourier_partial_sum

        xs = [math.pi * i / 1000 for i in range(1, 1000)]
        x_col = _col(xs)
        _write_csv(out, ["N", "x", "s"],
                   [((n_terms,), (x_col, fourier_partial_sum(n_terms, xs).tolist()))
                    for n_terms in (5, 20, 80)])

    elif name == "fig6":
        from .painleve import painleve_eigenvalues

        eigs = painleve_eigenvalues(4)
        _write_csv(out, ["k", "a", "segment", "x", "y"],
                   _segment_blocks(enumerate(eigs, start=1), -12.0))
        summary["eigenvalues"] = eigs

    elif name == "fig7":
        _write_csv(out, ["fate", "a", "segment", "x", "y"],
                   _segment_blocks((("oscillatory", 1.0), ("pole_chain", 5.0)), -40.0))

    elif name == "fig8":
        from .pseries import tau_scan

        sr = tau_scan(0.0, 1.0, args.step, args.n)
        _write_csv(out, ["tau", "rho"], [((), (sr.taus, sr.rhos))])
        summary["n"] = args.n
        summary["maxima"] = [list(m) for m in sr.maxima[:4]]
        summary["reflection_gap"] = sr.reflection_gap
        summary["half_shift_gap"] = sr.half_shift_gap

    return [out], summary


def _cmd_limiting_curve(args) -> tuple[list, dict]:
    from .limitcurve import implicit_Z, solve_limit_ode

    lc = solve_limit_ode(args.grid)
    zi = implicit_Z(lc.ts).tolist()
    diff = [z - b for z, b in zip(lc.zs, zi)]
    out = Path(args.out)
    _write_csv(out, ["t", "Z_ode", "Z_implicit", "diff"], [((), (lc.ts, lc.zs, zi, diff))])
    return [out], {"Z0": lc.zs[0], "sup_method_gap": max([0.0, *map(abs, diff)])}


def _increasing(ns) -> bool:
    return all(a < b for a, b in zip(ns, ns[1:]))


def _constant_indices(text: str) -> list[int]:
    """a-constant --indices: at least two strictly increasing integers in
    1.._MAX_INDEX, refused before any trace."""
    ns = _parse_list(text, "--indices", int)
    if not (len(ns) >= 2 and 1 <= ns[0] and ns[-1] <= _MAX_INDEX and _increasing(ns)):
        raise UsageError(f"--indices {text!r} must be at least two strictly increasing "
                         f"integers in 1..{_MAX_INDEX}")
    return ns


def _cmd_extrapolate(args) -> tuple[list, dict]:
    from .extrapolate import fit_correction_exponent, richardson

    if args.values and args.target:
        raise UsageError(f"--values and --target {args.target} exclude each other")
    if args.target == "painleve-c" and args.indices:
        raise UsageError("--indices applies to --values and --target a-constant, not painleve-c")
    if args.target != "painleve-c" and args.count is not None:
        raise UsageError("--count applies to --target painleve-c only")
    if args.values:
        if not args.indices:
            raise UsageError("--values requires --indices")
        values = _parse_list(args.values, "--values")
        if len(values) < 2:
            raise UsageError("--values needs at least two entries")
        indices = _parse_list(args.indices, "--indices")
        if len(indices) != len(values):
            raise UsageError(f"--indices has {len(indices)} entries, --values {len(values)}")
        if not (indices[0] > 0 and _increasing(indices)):
            raise UsageError(f"--indices {args.indices!r} must be positive and strictly increasing")
        target = "raw"
    elif args.target == "a-constant":
        from .separatrix import trace_separatrix_backward

        indices = _constant_indices(_default(args, "indices", "125,250,500,1000,2000"))
        values = []
        for n in indices:
            a_n = trace_separatrix_backward(n, dense=False).y_end
            values.append(math.sqrt(2.0) * a_n / math.sqrt(2 * n - 0.5))
        target = args.target
    elif args.target == "painleve-c":
        from .painleve import GROWTH_EXPONENT, painleve_eigenvalues

        eigs = painleve_eigenvalues(_default(args, "count", 12))
        indices = list(range(4, len(eigs) + 1))
        values = [eigs[n - 1] / n ** GROWTH_EXPONENT for n in indices]
        target = args.target
    else:
        raise UsageError("need --values or --target {a-constant,painleve-c}")

    stages = _default(args, "stages", min(4, len(values) - 1))
    if not 1 <= stages <= len(values) - 1:
        raise UsageError(f"--stages must be in 1..{len(values) - 1} for {len(values)} values")
    result = richardson(values, indices, stages=stages)
    payload = {
        "target": target,
        "indices": indices,
        "values": values,
        "limit": result.limit,
        "stages": result.stages,
        "error_estimate": result.error_estimate,
        "diagonal": list(result.diagonal),
        "fitted_correction_exponent": fit_correction_exponent(values, indices, result.limit),
    }
    out = Path(args.out)
    _write_json(out, payload)
    return [out], {"limit": result.limit}


def _cmd_painleve(args) -> tuple[list, dict]:
    from .painleve import (REPORTED_GROWTH_CONSTANT, classify_fate, estimate_C,
                           fit_oscillation_envelope, integrate_with_poles,
                           painleve_eigenvalues)

    out = Path(args.out)
    if args.task == "eigen":
        eigs = painleve_eigenvalues(args.count, y0=args.y0)
        payload = {
            "y0": args.y0,
            "eigenvalues": eigs,
            "growth_constant_estimate": estimate_C(eigs) if len(eigs) >= 8 else None,
            "reported_growth_constant": REPORTED_GROWTH_CONSTANT,
            "nearby_closed_form": 3.4 * 2 ** (1 / 3),
        }
        _write_json(out, payload)
        return [out], {"count": len(eigs)}
    if args.task == "fate":
        rep = classify_fate(args.a, y0=args.y0)
        payload = {"a": args.a, "y0": args.y0, "lock": rep.lock,
                   "pole_count": rep.pole_count, "lock_onset": rep.lock_onset}
        _write_json(out, payload)
        return [out], {"lock": rep.lock}
    # envelope, the last choice
    segs, poles = integrate_with_poles(args.a, args.x_min, y0=args.y0)
    fit = fit_oscillation_envelope(segs[-1], fit_window=(args.x_min, args.x_min / 3.2))
    payload = {"a": args.a, "amplitude_exponent": fit.amplitude_exponent,
               "phase_coefficient": fit.phase_coefficient,
               "n_extrema": fit.n_extrema, "poles": len(poles)}
    _write_json(out, payload)
    return [out], {"n_extrema": fit.n_extrema}


def _cmd_pseries(args) -> tuple[list, dict]:
    out = Path(args.out) if args.out else None
    if args.task == "scan":
        from .pseries import tau_scan

        lo, hi, step = _parse_grid(args.tau)
        sr = tau_scan(lo, hi, step, args.n)
        _write_csv(out, ["tau", "rho"], [((), (sr.taus, sr.rhos))])
        return [out], {"maxima": [list(m) for m in sr.maxima[:4]],
                       "failures": len(sr.failures),
                       "reflection_gap": sr.reflection_gap,
                       "half_shift_gap": sr.half_shift_gap}
    if args.task == "rho":
        from .pseries import rho_n

        val = rho_n(args.tau_value, args.n)
        payload = {"tau": args.tau_value, "n": args.n, "rho": val}
        if out is None:
            return [], payload
        _write_json(out, payload)
        return [out], payload
    # roots, the last choice
    from .pseries import partial_sum_roots

    roots, residuals = partial_sum_roots(args.tau_value, args.n)
    # moduli as rho_n takes them (np.abs and Python's abs can differ in the
    # last bit), so rho and roots print the same rho
    mods = np.abs(roots)
    payload = {
        "tau": args.tau_value, "n": args.n,
        "roots": [{"re": z.real, "im": z.imag, "abs": float(a), "residual": float(r)}
                  for z, a, r in sorted(zip(roots, mods, residuals), key=lambda p: -p[1])],
    }
    _write_json(out, payload)
    return [out], {"rho": float(np.max(mods))}


def _cmd_fourier(args) -> tuple[list, dict]:
    from .fourier import GIBBS_LIMIT, fourier_partial_sum, gibbs_overshoot

    if (args.n_terms + 1) * args.grid > _MAX_SINES:
        raise UsageError(f"--n-terms {args.n_terms} with --grid {args.grid} needs "
                         f"{(args.n_terms + 1) * args.grid} sines, more than {_MAX_SINES}")
    xs = [math.pi * i / (args.grid + 1) for i in range(1, args.grid + 1)]
    vals = fourier_partial_sum(args.n_terms, xs).tolist()
    out = Path(args.out)
    _write_csv(out, ["x", "s"], [((), (xs, vals))])
    return [out], {"n_terms": args.n_terms,
                   "overshoot": gibbs_overshoot(args.n_terms),
                   "overshoot_limit": GIBBS_LIMIT}


def _cmd_run(args) -> tuple[list, dict]:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for *argv, name in _PRESETS[args.preset]:
        outputs.append(out_dir / name)
        argv.append(str(outputs[-1]))
        if main(argv) != 0:
            raise RuntimeError(f"subcommand failed: {argv}")
    return outputs, {"preset": args.preset}


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags: a leaf must not read another leaf's flag as its own."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _checked(kind, ok, want: str):
    """argparse type: kind(text), refused unless finite and ok(value)."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{text!r} must be {want}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _checked(float, lambda v: v > 0, "positive and finite")
_NEGATIVE = _checked(float, lambda v: v < 0, "negative and finite")
_FINITE = _checked(float, lambda v: True, "finite")
_DEGREE = _checked(int, lambda v: 1 <= v <= _MAX_DEGREE,
                   f">= 1 and not above the partial-sum degree cap {_MAX_DEGREE}")
_INDEX = _checked(int, lambda v: 1 <= v <= _MAX_INDEX,
                  f">= 1 and not above the separatrix index cap {_MAX_INDEX}")


def _leaves(subs, name: str, help: str, func, dest: str, leaves) -> dict:
    """{leaf: parser} of subcommand name, whose first argument names the leaf in args.<dest>."""
    q = subs.add_parser(name, help=help)
    q.set_defaults(func=func)
    tasks = q.add_subparsers(dest=dest, required=True)
    return {leaf: tasks.add_parser(leaf) for leaf in leaves}


@functools.cache
def _build_parser() -> _Parser:
    """Built at the first main call, reused for the process's life; parsing keeps no state in it."""
    p = _Parser(prog="nel", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="subcommand", required=True)

    q = subs.add_parser("eigen", help="separatrix intercepts a_n")
    q.add_argument("--n", required=True, help="index range, e.g. 1:6 or -3:6")
    q.add_argument("--method", choices=("both", "bisect", "backward"), default="both")
    q.add_argument("--tol", type=_POSITIVE, help="both and bisect only (default 1e-10)")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_eigen)

    figs = _leaves(subs, "figures", "figure datasets", _cmd_figures, "figure", _FIGURES)
    for q in figs.values():
        q.add_argument("--out", required=True)
    figs["fig4"].add_argument("--n", type=_INDEX, default=10000,
                              help="curve index (default %(default)s)")
    figs["fig8"].add_argument("--n", type=_DEGREE, default=50, help="degree (default %(default)s)")
    figs["fig8"].add_argument("--step", type=_checked(float, lambda v: v >= 1e-6, ">= 1e-6"),
                              default=0.0005, help="tau step (default %(default)s)")

    q = subs.add_parser("limiting-curve", help="limit curve by both routes")
    q.add_argument("--grid", type=_checked(int, lambda v: 2 <= v <= _MAX_GRID,
                                           f"in 2..{_MAX_GRID}"), default=1001)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_limiting_curve)

    q = subs.add_parser("extrapolate", help="Richardson extrapolation")
    q.add_argument("--target", choices=("a-constant", "painleve-c"))
    q.add_argument("--values", help="comma-separated raw sequence")
    q.add_argument("--indices", help="comma-separated indices")
    q.add_argument("--stages", type=int)
    q.add_argument("--count", type=_checked(int, lambda v: 5 <= v <= 20, "in 5..20"),
                   help="eigenvalues for painleve-c (default 12); the fit uses a_4 onward")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_extrapolate)

    pl = _leaves(subs, "painleve", "first Painleve transcendent", _cmd_painleve, "task",
                 ("eigen", "fate", "envelope"))
    pl["eigen"].add_argument("--count", type=_checked(int, lambda v: 1 <= v <= 20, "in 1..20"),
                             default=12, help="eigenvalues (default %(default)s)")
    pl["eigen"].add_argument("--y0", default=1.0, type=_checked(
        float, lambda v: -3 <= v <= 5, "in -3..5, where the scan cap was checked"))
    pl["fate"].add_argument("--a", type=_FINITE, default=0.0, help="slope (default %(default)s)")
    pl["envelope"].add_argument("--a", type=_FINITE, required=True)   # a = 0: too few extrema
    for q in (pl["fate"], pl["envelope"]):
        q.add_argument("--y0", type=_FINITE, default=1.0)
    pl["envelope"].add_argument("--x-min", type=_NEGATIVE, default=-80.0, dest="x_min",
                                help="window end (default %(default)s)")
    for q in pl.values():
        q.add_argument("--out", required=True)

    ps = _leaves(subs, "pseries", "partial-sum root moduli", _cmd_pseries, "task",
                 ("scan", "rho", "roots"))
    for task, q in ps.items():
        q.add_argument("--n", type=_DEGREE, default=50, help="degree (default %(default)s)")
        if task == "scan":
            q.add_argument("--tau", default="0:1:0.0005", help="grid (default %(default)s)")
        else:
            q.add_argument("--tau-value", type=_FINITE, default=0.25, dest="tau_value")
        q.add_argument("--out", required=task != "rho")

    q = subs.add_parser("fourier", help="square-wave sine sections")
    q.add_argument("--n-terms", type=_checked(int, lambda v: v >= 0, ">= 0"), default=80,
                   dest="n_terms", help="N; (N + 1) * grid is at most 2^25")
    q.add_argument("--grid", type=_checked(int, lambda v: 1 <= v <= _MAX_GRID,
                                           f"in 1..{_MAX_GRID}"), default=1001)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_fourier)

    q = subs.add_parser("run", help="preset batches")
    q.add_argument("--preset", choices=tuple(_PRESETS), default="quick")
    q.add_argument("--out-dir", required=True, dest="out_dir")
    q.set_defaults(func=_cmd_run)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        outputs, summary = args.func(args)
        outputs = [str(p) for p in outputs]
        # the manifest goes beside --out, or into --out-dir; none without either
        out, out_dir = getattr(args, "out", None), getattr(args, "out_dir", None)
        if out or out_dir:
            path = f"{Path(out)}.manifest.json" if out else Path(out_dir, "run.manifest.json")
            params = {k: v for k, v in vars(args).items()
                      if k not in ("func", "out", "out_dir") and v is not None}
            _write_json(path, {"subcommand": args.subcommand, "parameters": params,
                               "version": __version__,
                               "wall_time_s": time.perf_counter() - t0, "outputs": outputs})
        print(_json_dump({**summary, "outputs": outputs}))
        return 0
    except UsageError as exc:
        sys.stderr.write(_json_dump({"error": {
            "type": "UsageError", "module": "cli", "message": str(exc)}}) + "\n")
        return 2
    except Exception as exc:                      # noqa: BLE001 - CLI boundary
        sys.stderr.write(_json_dump({"error": {
            "type": type(exc).__name__,
            "module": type(exc).__module__,
            "message": str(exc)}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
