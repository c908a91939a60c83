"""Command-line front end: reproducible CSV/JSON datasets for every figure
and table, plus direct access to the solvers.

All numeric payloads are serialized with 17 significant digits so a reparse
reproduces bit-identical values, and identical invocations produce
byte-identical files.  Grids are capped at 1,000,001 points, separatrix
indices at |n| <= 100,000 and a Fourier section at 2^25 sine values.  The
Painleve commands use the fixed fate window x >= -135; the eigenvalue scan
steps by 0.3 of the growth law's spacing and closes each flip to width 1e-7.
Every output file X gets a sidecar X.manifest.json recording the subcommand,
parameters, tool version and wall time that produced it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["main", "UsageError", "RunManifest"]

_MAX_GRID = 1_000_001     # points in any grid a command builds
_MAX_DEGREE = 500         # partial-sum degree; the root finder holds d^2 values a row
_MAX_INDEX = 100_000      # |n|; n = -1e5 takes 944,976 of the trace's 5,000,000 attempts
_MAX_SINES = 2 ** 25      # (n_terms + 1) * grid; the partial sum holds two such arrays, 512 MB
_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


class UsageError(Exception):
    """Bad flags or arguments; exit code 2 with a machine-readable payload."""


@dataclass
class RunManifest:
    subcommand: str
    parameters: dict
    version: str
    wall_time_s: float
    outputs: list


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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Header, then one line per row tuple.  The first row fixes each
    column's format: "%s" for a str label, "%.17g" for a number, which
    writes a float as format(v, ".17g") (nan, inf and -inf included) and an
    int up to 2^53 in size as str(v).  Rows stream to the file one line at a
    time."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
        fh.write(line % first)
        fh.writelines(map(line.__mod__, rows))


def _write_json(path: Path, obj) -> None:
    Path(path).write_text(_json_dump(obj) + "\n")


def _finish(args, t0: float, outputs: list[Path], summary: dict) -> int:
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "out_dir") and v is not None}
    manifest = RunManifest(args.subcommand, params, __version__,
                           time.perf_counter() - t0,
                           [str(p) for p in outputs])
    if outputs:
        mpath = Path(str(outputs[0]) + ".manifest.json")
        _write_json(mpath, asdict(manifest))
    summary = dict(summary)
    summary["outputs"] = [str(p) for p in outputs]
    print(_json_dump(summary))
    return 0


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


def _grid_read(traj, x0: float, x1: float, h: float):
    """(x, y[0]) on ``_grid(x0, x1, h)``."""
    xs = _grid(x0, x1, h)
    return zip(xs.tolist(), traj.sample(xs).reshape(len(xs), -1)[:, 0].tolist())


def _segment_rows(label, a, segs) -> list:
    """(label, a, segment, x, y) on a 0.01 grid down each Painleve segment."""
    return [(label, a, si, x, y) for si, seg in enumerate(segs)
            for x, y in _grid_read(seg, seg.x_start, seg.x_end, 0.01)]


# -- subcommands --------------------------------------------------------------


def _cmd_eigen(args) -> int:
    from .separatrix import (_check_tol, eigenvalue_table, find_eigenvalue_bisect,
                             trace_separatrix_backward)

    t0 = time.perf_counter()
    ns = _parse_range(args.n)
    if args.method == "bisect" and min(ns) < 1:
        raise UsageError(f"--method bisect needs every n >= 1, got {args.n!r}")
    if args.method != "backward":
        try:
            _check_tol(args.tol, max(ns))
        except ValueError as exc:
            raise UsageError(f"--tol: {exc}") from exc
    if args.method == "both":
        records = eigenvalue_table(ns, args.tol)
    elif args.method == "bisect":
        records = [find_eigenvalue_bisect(n, args.tol) for n in ns]
    else:
        records = [trace_separatrix_backward(n, dense=False)[0] for n in ns]
    payload = [{"n": r.n, "a_n": r.a_n, "method": r.method,
                "residual": r.residual, "tail_m": r.tail_m} for r in records]
    out = Path(args.out)
    _write_json(out, payload)
    return _finish(args, t0, [out],
                   {"count": len(payload), "a_min": records[0].a_n,
                    "a_max": records[-1].a_n})


def _fig1_task(k: int):
    from .cosine import forward_values

    a = 0.2 * k
    xs = _grid(0.0, 24.0, 0.02)
    return [(k, a, x, y) for x, y in zip(xs.tolist(), forward_values(a, xs).tolist())]


def _cmd_figures(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    name = args.figure
    if args.n is not None and name not in ("fig4", "fig8"):
        raise UsageError(f"--n applies to fig4 and fig8, not {name}")
    if args.step is not None and name != "fig8":
        raise UsageError(f"--step applies to fig8, not {name}")
    summary: dict = {"figure": name}

    if name == "fig1":
        rows = [row for k in range(1, 51) for row in _fig1_task(k)]
        _write_csv(out, ["k", "a", "x", "y"], rows)

    elif name == "fig2":
        from .separatrix import trace_separatrix_backward

        rows = []
        for n in range(-3, 7):
            # the strip contracts the seed's error by e^-32 from x = 21 to 20
            rec, traj = trace_separatrix_backward(n, x_start=21.0)
            rows.extend((n, rec.a_n, x, y) for x, y in _grid_read(traj, 0.0, 20.0, 0.02))
        _write_csv(out, ["n", "a_n", "x", "y"], rows)

    elif name == "fig3":
        from .limitcurve import implicit_Z
        from .separatrix import scaled_separatrix

        rows = []
        ts = [2.2 * i / 1100 for i in range(1101)]   # inside t_max >= 2.81 for n <= 4
        for n in range(1, 5):
            rows.extend((f"z_{n}", t, z) for t, z in zip(ts, scaled_separatrix(n, ts)))
        ts = [i / 1000 for i in range(1001)]
        rows.extend(("Z", t, z) for t, z in zip(ts, implicit_Z(ts).tolist()))
        _write_csv(out, ["series", "t", "value"], rows)

    elif name == "fig4":
        from .limitcurve import implicit_Z
        from .separatrix import scaled_separatrix

        n = args.n if args.n is not None else 10000
        if n > _MAX_INDEX:
            raise UsageError(f"--n {n} is above the separatrix index cap {_MAX_INDEX}")
        ts = [i / 2000 for i in range(2001)]
        rows = [(t, zz, big, zz - big)
                for t, zz, big in zip(ts, scaled_separatrix(n, ts), implicit_Z(ts).tolist())]
        _write_csv(out, ["t", "z", "Z", "diff"], rows)
        summary["n"] = n

    elif name == "fig5":
        from .fourier import fourier_partial_sum

        rows = []
        for n_terms in (5, 20, 80):
            xs = [math.pi * i / 1000 for i in range(1, 1000)]
            vals = fourier_partial_sum(n_terms, xs)
            rows.extend((n_terms, x, float(v)) for x, v in zip(xs, vals))
        _write_csv(out, ["N", "x", "s"], rows)

    elif name == "fig6":
        from .painleve import painleve_eigenvalues, integrate_with_poles

        eigs = painleve_eigenvalues(4)
        rows = []
        for k, a in enumerate(eigs, start=1):
            rows.extend(_segment_rows(k, a, integrate_with_poles(a, -12.0)[0]))
        _write_csv(out, ["k", "a", "segment", "x", "y"], rows)
        summary["eigenvalues"] = eigs

    elif name == "fig7":
        from .painleve import integrate_with_poles

        rows = []
        for label, a in (("oscillatory", 1.0), ("pole_chain", 5.0)):
            rows.extend(_segment_rows(label, a, integrate_with_poles(a, -40.0)[0]))
        _write_csv(out, ["fate", "a", "segment", "x", "y"], rows)

    elif name == "fig8":
        from .pseries import tau_scan

        n = _degree(args.n) if args.n is not None else 50
        if args.step is None:
            args.step = 0.0005          # the manifest records the step used
        sr = tau_scan(0.0, 1.0, args.step, n)
        _write_csv(out, ["tau", "rho"], zip(sr.taus, sr.rhos))
        summary["n"] = n
        summary["maxima"] = [list(m) for m in sr.maxima[:4]]
        summary["reflection_gap"] = sr.reflection_gap
        summary["half_shift_gap"] = sr.half_shift_gap

    return _finish(args, t0, [out], summary)


def _cmd_limiting_curve(args) -> int:
    from .limitcurve import implicit_Z, solve_limit_ode

    t0 = time.perf_counter()
    lc = solve_limit_ode(args.grid)
    rows = []
    sup = 0.0
    for t, z, zi in zip(lc.ts, lc.zs, implicit_Z(lc.ts).tolist()):
        sup = max(sup, abs(z - zi))
        rows.append((t, z, zi, z - zi))
    out = Path(args.out)
    _write_csv(out, ["t", "Z_ode", "Z_implicit", "diff"], rows)
    return _finish(args, t0, [out],
                   {"Z0": lc.zs[0], "sup_method_gap": sup})


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


def _cmd_extrapolate(args) -> int:
    from .extrapolate import fit_correction_exponent, richardson

    t0 = time.perf_counter()
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
        indices = _parse_list(args.indices, "--indices")
        if len(indices) != len(values):
            raise UsageError(f"--indices has {len(indices)} entries, --values {len(values)}")
        if not (indices[0] > 0 and _increasing(indices)):
            raise UsageError(f"--indices {args.indices!r} must be positive and strictly increasing")
        target = "raw"
    elif args.target == "a-constant":
        from .separatrix import trace_separatrix_backward

        indices = _constant_indices(args.indices) if args.indices \
            else [125, 250, 500, 1000, 2000]
        values = []
        for n in indices:
            rec, _ = trace_separatrix_backward(n, dense=False)
            values.append(math.sqrt(2.0) * rec.a_n / math.sqrt(2 * n - 0.5))
        target = args.target
    elif args.target == "painleve-c":
        from .painleve import GROWTH_EXPONENT, painleve_eigenvalues

        if args.count is None:
            args.count = 12             # the manifest records the count used
        eigs = painleve_eigenvalues(args.count)
        indices = list(range(4, len(eigs) + 1))
        values = [eigs[n - 1] / n ** GROWTH_EXPONENT for n in indices]
        target = args.target
    else:
        raise UsageError("need --values or --target {a-constant,painleve-c}")

    stages = min(4, len(values) - 1) if args.stages is None else args.stages
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
    return _finish(args, t0, [out], {"limit": result.limit})


def _cmd_painleve(args) -> int:
    from .painleve import (REPORTED_GROWTH_CONSTANT, classify_fate, estimate_C,
                           fit_oscillation_envelope, integrate_with_poles,
                           painleve_eigenvalues)

    t0 = time.perf_counter()
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
        return _finish(args, t0, [out], {"count": len(eigs)})
    if args.task == "fate":
        rep = classify_fate(args.a, y0=args.y0)
        payload = {"a": args.a, "y0": args.y0, "lock": rep.lock,
                   "pole_count": rep.pole_count, "lock_onset": rep.lock_onset}
        _write_json(out, payload)
        return _finish(args, t0, [out], {"lock": rep.lock})
    # envelope, the last choice
    segs, poles = integrate_with_poles(args.a, args.x_min, y0=args.y0)
    fit = fit_oscillation_envelope(segs[-1], fit_window=(args.x_min, args.x_min / 3.2))
    payload = {"a": args.a, "amplitude_exponent": fit.amplitude_exponent,
               "phase_coefficient": fit.phase_coefficient,
               "n_extrema": fit.n_extrema, "poles": len(poles)}
    _write_json(out, payload)
    return _finish(args, t0, [out], {"n_extrema": fit.n_extrema})


def _degree(n: int) -> int:
    if n > _MAX_DEGREE:
        raise UsageError(f"--n {n} is above the partial-sum degree cap {_MAX_DEGREE}")
    return n


def _cmd_pseries(args) -> int:
    t0 = time.perf_counter()
    _degree(args.n)
    out = Path(args.out) if args.out else None
    if out is None and args.task in ("scan", "roots"):
        raise UsageError(f"{args.task} requires --out")
    if args.task == "scan":
        from .pseries import tau_scan

        lo, hi, step = _parse_grid(args.tau)
        sr = tau_scan(lo, hi, step, args.n)
        _write_csv(out, ["tau", "rho"], zip(sr.taus, sr.rhos))
        return _finish(args, t0, [out],
                       {"maxima": [list(m) for m in sr.maxima[:4]],
                        "failures": len(sr.failures),
                        "reflection_gap": sr.reflection_gap,
                        "half_shift_gap": sr.half_shift_gap})
    if args.task == "rho":
        from .pseries import rho_n

        val = rho_n(args.tau_value, args.n)
        payload = {"tau": args.tau_value, "n": args.n, "rho": val}
        outputs = []
        if out is not None:
            _write_json(out, payload)
            outputs.append(out)
        return _finish(args, t0, outputs, payload)
    # roots, the last choice
    from .pseries import all_roots, ftau_partial_sum

    poly = ftau_partial_sum(args.tau_value, args.n)
    roots, residuals = all_roots(poly)
    payload = {
        "tau": args.tau_value, "n": args.n,
        "roots": [{"re": z.real, "im": z.imag, "abs": abs(z), "residual": float(r)}
                  for z, r in sorted(zip(roots, residuals), key=lambda p: -abs(p[0]))],
    }
    _write_json(out, payload)
    return _finish(args, t0, [out], {"rho": max(abs(z) for z in roots)})


def _cmd_fourier(args) -> int:
    from .fourier import GIBBS_LIMIT, fourier_partial_sum, gibbs_overshoot

    t0 = time.perf_counter()
    if (args.n_terms + 1) * args.grid > _MAX_SINES:
        raise UsageError(f"--n-terms {args.n_terms} with --grid {args.grid} needs "
                         f"{(args.n_terms + 1) * args.grid} sines, more than {_MAX_SINES}")
    xs = [math.pi * i / (args.grid + 1) for i in range(1, args.grid + 1)]
    vals = fourier_partial_sum(args.n_terms, xs)
    out = Path(args.out)
    _write_csv(out, ["x", "s"], zip(xs, (float(v) for v in vals)))
    return _finish(args, t0, [out],
                   {"n_terms": args.n_terms,
                    "overshoot": gibbs_overshoot(args.n_terms),
                    "overshoot_limit": GIBBS_LIMIT})


def _cmd_run(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []

    def sub(argv):
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"subcommand failed: {argv}")

    if args.preset == "quick":
        sub(["eigen", "--n", "1:6", "--method", "both",
             "--out", str(out_dir / "eigenvalues.json")])
        sub(["limiting-curve", "--grid", "1001",
             "--out", str(out_dir / "limit_curve.csv")])
        sub(["fourier", "--n-terms", "80", "--grid", "1001",
             "--out", str(out_dir / "fourier.csv")])
        outputs = [out_dir / "eigenvalues.json", out_dir / "limit_curve.csv",
                   out_dir / "fourier.csv"]
    else:
        for name in _FIGURES:
            sub(["figures", name, "--out", str(out_dir / f"{name}.csv")])
            outputs.append(out_dir / f"{name}.csv")
    manifest = RunManifest("run", {"preset": args.preset}, __version__,
                           time.perf_counter() - t0, [str(p) for p in outputs])
    _write_json(out_dir / "run.manifest.json", asdict(manifest))
    print(_json_dump({"preset": args.preset, "outputs": [str(p) for p in outputs]}))
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
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


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: v > 0, "positive and finite")
_FINITE = _checked(float, lambda v: True, "finite")


@functools.cache
def _build_parser() -> _Parser:
    """Built at the first main call, reused for the process's life; parsing keeps no state in it."""
    p = _Parser(prog="nel", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="subcommand", required=True)

    q = subs.add_parser("eigen", help="separatrix intercepts a_n")
    q.add_argument("--n", required=True, help="index range, e.g. 1:6 or -3:6")
    q.add_argument("--method", choices=("both", "bisect", "backward"), default="both")
    q.add_argument("--tol", type=_POSITIVE, default=1e-10)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_eigen)

    q = subs.add_parser("figures", help="figure datasets fig1..fig8")
    q.add_argument("figure", choices=_FIGURES)
    q.add_argument("--out", required=True)
    q.add_argument("--n", type=_POSITIVE_INT, default=None,
                   help="scaled-curve index for fig4 (default 10000, at most 100000); "
                        "partial-sum degree for fig8 (default 50)")
    q.add_argument("--step", type=_checked(float, lambda v: v >= 1e-6, ">= 1e-6"),
                   default=None, help="tau step for fig8 (default 0.0005)")
    q.set_defaults(func=_cmd_figures)

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

    q = subs.add_parser("painleve", help="first Painleve transcendent")
    q.add_argument("task", choices=("eigen", "fate", "envelope"))
    q.add_argument("--count", type=_checked(int, lambda v: 1 <= v <= 20, "in 1..20"), default=12)
    q.add_argument("--a", type=_FINITE, default=0.0)
    q.add_argument("--y0", type=_FINITE, default=1.0,
                   help="y(0); the eigen scan cap follows the y0 = 1 law and was "
                        "checked for y0 in -3..5")
    q.add_argument("--x-min", type=_checked(float, lambda v: v < 0, "negative and finite"),
                   default=-80.0, dest="x_min")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_painleve)

    q = subs.add_parser("pseries", help="partial-sum root moduli")
    q.add_argument("task", choices=("scan", "rho", "roots"))
    q.add_argument("--n", type=_POSITIVE_INT, default=50)
    q.add_argument("--tau", default="0:1:0.0005", help="scan grid start:end:step")
    q.add_argument("--tau-value", type=_FINITE, default=0.25, dest="tau_value")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_pseries)

    q = subs.add_parser("fourier", help="square-wave sine sections")
    q.add_argument("--n-terms", type=_checked(int, lambda v: v >= 0, ">= 0"), default=80,
                   dest="n_terms", help="N; (N + 1) * grid is at most 2^25")
    q.add_argument("--grid", type=_checked(int, lambda v: 1 <= v <= _MAX_GRID,
                                           f"in 1..{_MAX_GRID}"), default=1001)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_fourier)

    q = subs.add_parser("run", help="preset batches")
    q.add_argument("--preset", choices=("quick", "figures"), default="quick")
    q.add_argument("--out-dir", required=True, dest="out_dir")
    q.set_defaults(func=_cmd_run)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
