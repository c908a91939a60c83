"""Every output check of the nel benchmark, in one place.

``check(workload, requests, outcomes, run_dir)`` returns one entry per
request: None when the request exited 0 and its output passed, else the
reason it failed.  Checks read the files and stdout the requests left
behind; they run after the timed loop.  Each tolerance names its source:
an acceptance criterion of the test suite, or an independent route.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import PAINLEVE_PUBLISHED, SCAN_PEAK_TAU

# Criterion 2: |bisect - backward| <= 1e-7 for every n in 1..10.
BOTH_RESIDUAL = 1e-7
# Criterion 3: Richardson limit of sqrt(2) a_n / sqrt(2n - 1/2) within 1e-5 of 2^(5/6).
A_CONSTANT, A_CONSTANT_TOL = 2.0 ** (5.0 / 6.0), 1e-5
# Criterion 9: eigenvalues within 1e-4 of the published a_1, a_2.
PAINLEVE_TOL = 1e-4
# Independent route: max root modulus from companion-matrix eigenvalues
# (numpy.roots) of the same partial sum.  Worst gap measured up to degree
# 100 was 1.3e-14.
RHO_TOL = 1e-12
# Criterion 12's attainable part: the largest maximum is 1.7818 at tau = 0.3780.
SCAN_PEAK_RHO, SCAN_PEAK_TOL = 1.7818, 5e-4
# Criterion 4: the ODE and implicit limit curves agree to 1e-8.
LIMIT_GAP = 1e-8
# Criterion 11: amplitude exponent -1/8 +- 0.02, phase coefficient
# (4/5) sqrt(2) within 0.5 %.  Over a = 0.5..3.0 the worst gap measured was 0.27 %.
ENV_EXPONENT, ENV_EXPONENT_TOL = -0.125, 0.02
ENV_PHASE, ENV_PHASE_REL = 0.8 * math.sqrt(2.0), 0.005
# Criterion 13: overshoot within 1e-3 of (2/pi) Si(pi), with Si(pi) from
# 32-point Gauss-Legendre quadrature rather than nel's constant.
_nodes, _weights = np.polynomial.legendre.leggauss(32)
_t = 0.5 * math.pi * (_nodes + 1.0)
GIBBS = 2.0 / math.pi * float(0.5 * math.pi * np.sum(_weights * np.sin(_t) / _t))
GIBBS_TOL = 1e-3
# fig2 rows at x = 0 hold the backward intercept in both the a_n and the y
# column; the quartic interpolant reproduces the step end to rounding.
FIG2_SELF_TOL = 1e-12
# fig2 intercepts against the seven-digit published caption.  A gross-error
# check only: criterion 1 documents that a_6 sits 5.0e-5 from its caption
# value while bisection and the backward trace agree to 1e-7.
FIG2_CAPTION = {-3: -3.231360, -2: -2.698369, -1: -2.032651, 0: -1.016702,
                1: 1.602573, 2: 2.388358, 3: 2.976682, 4: 3.467542,
                5: 3.897484, 6: 4.284674}
FIG2_CAPTION_TOL = 1e-4


def _out(run_dir: Path, argv: list[str]) -> Path:
    return run_dir / argv[argv.index("--out") + 1]


def _json(path: Path):
    return json.loads(path.read_text())


def _summary(outcome: dict) -> dict:
    return json.loads(outcome["stdout"].strip().splitlines()[-1])


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite_csv(path: Path, first_numeric: int = 0) -> str | None:
    rows = _csv_rows(path)
    if not rows:
        return f"{path.name}: no rows"
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[first_numeric:]):
            return f"{path.name}: non-finite row {row}"
    return None


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# -- separatrix -----------------------------------------------------------------


def _separatrix_one(argv, outcome, run_dir):
    if argv[0] == "extrapolate":
        limit = _json(_out(run_dir, argv))["limit"]
        if not abs(limit - A_CONSTANT) <= A_CONSTANT_TOL:
            return f"a-constant limit {limit!r} not within {A_CONSTANT_TOL} of 2^(5/6)"
        return None
    (rec,) = _json(_out(run_dir, argv))
    if rec["n"] != int(_arg(argv, "--n")):
        return f"record for n={rec['n']}, asked {_arg(argv, '--n')}"
    if _arg(argv, "--method") == "both" and not rec["residual"] <= BOTH_RESIDUAL:
        return f"both residual {rec['residual']!r} > {BOTH_RESIDUAL}"
    return None


def _separatrix_all(requests, run_dir, fail):
    """Intercepts increase with n across requests (separatrices never cross)."""
    intercepts = sorted((rec["n"], rec["a_n"], i)
                        for i, argv in enumerate(requests)
                        if not fail[i] and argv[0] == "eigen"
                        for rec in _json(_out(run_dir, argv)))
    for (n0, a0, _), (n1, a1, i) in zip(intercepts, intercepts[1:]):
        if (n1 > n0 and not a1 > a0) or (n1 == n0 and a1 != a0):
            fail[i] = f"intercepts not increasing: a_{n0}={a0!r}, a_{n1}={a1!r}"


# -- painleve -------------------------------------------------------------------


def _expected_fate(a: float) -> str:
    below = sum(1 for e in PAINLEVE_PUBLISHED if e < a)
    return "pole_chain" if below % 2 == 0 else "oscillatory"


def _painleve_one(argv, outcome, run_dir):
    payload = _json(_out(run_dir, argv))
    if argv[1] == "fate":
        a = float(_arg(argv, "--a"))
        if payload["a"] != a or payload["lock"] != _expected_fate(a):
            return f"fate {payload['lock']!r} at a={a!r}, expected {_expected_fate(a)!r}"
        return None
    eigs = payload["eigenvalues"]
    if len(eigs) != int(_arg(argv, "--count")) or any(
            not abs(e - p) <= PAINLEVE_TOL for e, p in zip(eigs, PAINLEVE_PUBLISHED)):
        return f"eigenvalues {eigs} not within {PAINLEVE_TOL} of published"
    return None


# -- pseries --------------------------------------------------------------------


def companion_rho(tau: float, n: int) -> float:
    """Max root modulus of sum_k exp(i pi tau (k^2 + k)) z^k, k = 0..n, from
    companion-matrix eigenvalues.  The phase is reduced mod 2 in exact
    rational arithmetic, as the definition requires at large k."""
    t = Fraction(tau)
    phases = [math.pi * float(t * (k * k + k) % 2) for k in range(n + 1)]
    coeffs = [complex(math.cos(p), math.sin(p)) for p in phases]
    return float(np.max(np.abs(np.roots(coeffs[::-1]))))


def _pseries_one(argv, outcome, run_dir):
    summary = _summary(outcome)
    if argv[1] == "rho":
        tau, n = float(_arg(argv, "--tau-value")), int(_arg(argv, "--n"))
        want = companion_rho(tau, n)
        if summary["tau"] != tau or summary["n"] != n or not abs(summary["rho"] - want) <= RHO_TOL:
            return f"rho {summary['rho']!r} vs companion {want!r} at tau={tau!r}, n={n}"
        return None
    rows = [(float(t), float(r)) for t, r in _csv_rows(_out(run_dir, argv))]
    tau_best, rho_best = max(rows, key=lambda p: p[1])
    if summary["failures"] != 0:
        return f"scan reported {summary['failures']} failures"
    if not (abs(rho_best - SCAN_PEAK_RHO) <= SCAN_PEAK_TOL
            and abs(tau_best - SCAN_PEAK_TAU) <= SCAN_PEAK_TOL):
        return f"scan peak {rho_best!r} at tau={tau_best!r}"
    if summary["maxima"][0] != [tau_best, rho_best]:
        return f"reported maximum {summary['maxima'][0]} is not the file's peak"
    return None


# -- datasets -------------------------------------------------------------------


def _fig2(path: Path) -> str | None:
    at_zero = {}
    for n, a_n, x, y in _csv_rows(path):
        if float(x) == 0.0:
            at_zero[int(n)] = (float(a_n), float(y))
    if sorted(at_zero) != sorted(FIG2_CAPTION):
        return f"fig2 x=0 rows for n={sorted(at_zero)}"
    for n, (a_n, y) in at_zero.items():
        if not abs(y - a_n) <= FIG2_SELF_TOL * max(1.0, abs(a_n)):
            return f"fig2 y(0)={y!r} differs from a_{n}={a_n!r}"
        if not abs(a_n - FIG2_CAPTION[n]) <= FIG2_CAPTION_TOL:
            return f"fig2 a_{n}={a_n!r} far from caption {FIG2_CAPTION[n]}"
    return None


def _datasets_one(argv, outcome, run_dir):
    path = _out(run_dir, argv)
    if argv[0] == "limiting-curve":
        gap = _summary(outcome)["sup_method_gap"]
        if not gap <= LIMIT_GAP:
            return f"limit-curve gap {gap!r} > {LIMIT_GAP}"
        return _finite_csv(path)
    if argv[0] == "fourier":
        over = _summary(outcome)["overshoot"]
        if not abs(over - GIBBS) <= GIBBS_TOL:
            return f"overshoot {over!r} not within {GIBBS_TOL} of {GIBBS!r}"
        return _finite_csv(path)
    if argv[0] == "painleve":
        fit = _json(path)
        rel = abs(fit["phase_coefficient"] - ENV_PHASE) / ENV_PHASE
        if not (abs(fit["amplitude_exponent"] - ENV_EXPONENT) <= ENV_EXPONENT_TOL
                and rel <= ENV_PHASE_REL):
            return f"envelope exponent {fit['amplitude_exponent']!r}, phase off by {rel:.3%}"
        return None
    if argv[1] == "fig2":
        return _fig2(path)
    # fig3 and fig7 start with a text label; every other column is a number
    return _finite_csv(path, first_numeric=1 if argv[1] in ("fig3", "fig7") else 0)


_CHECKS = {"separatrix": (_separatrix_one, _separatrix_all),
           "painleve": (_painleve_one, None),
           "pseries": (_pseries_one, None),
           "datasets": (_datasets_one, None)}


def check(workload: str, requests, outcomes, run_dir) -> list[str | None]:
    """Failure reason per request (None when it passed)."""
    one, across = _CHECKS[workload]
    run_dir = Path(run_dir)
    fail: list[str | None] = []
    for argv, outcome in zip(requests, outcomes):
        if outcome["code"] != 0:
            fail.append(f"exit code {outcome['code']}: {outcome['stderr'].strip()[-200:]}")
            continue
        try:
            fail.append(one(argv, outcome, run_dir))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            fail.append(f"malformed output: {type(exc).__name__}: {exc}")
    if across is not None:
        across(requests, run_dir, fail)
    return fail
