"""Separatrix eigenvalues of y'(x) = cos(pi*x*y).

Initial conditions fall into classes: for a between consecutive intercepts
a_{n-1} < a < a_n the solution shows exactly n maxima before decaying into
an even-m bundle.  The class boundaries are separatrices, each carrying the
odd tail (2n - 1/2)/x.  They are unstable forward (neighbours veer off to
the adjacent even bundles) but attract under backward integration, so two
independent computations of a_n are available:

* bisection on the maxima count of forward solutions, and
* backward integration seeded from the odd-m asymptotic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cosine import (AsymptoticTail, asymptotic_tail_eval, bundle_index,
                     rhs_unscaled, scaling_factor, tail_is_asymptotic,
                     trapped_in_even_bundle)
from .ode import Trajectory, find_extrema, integrate

__all__ = [
    "SolutionClass",
    "EigenvalueRecord",
    "Undecidable",
    "BracketFailure",
    "classify_initial_condition",
    "maxima_count",
    "find_eigenvalue_bisect",
    "trace_separatrix_backward",
    "backward_start",
    "scaled_separatrix",
    "scaled_separatrix_evaluator",
    "eigenvalue_table",
]

_A_LAW = 2.0 ** (5.0 / 6.0)   # large-n intercept growth a_n ~ A sqrt(n)
# Scaled backward start t = x / sqrt(2n - 1/2).  tail_is_asymptotic first
# holds at t ~ 1.7556 for large n and at t ~ 1.7925 for n = 7; for n <= 6 its
# threshold lies above 1.8 (1.8058 at n = 6).
_TAIL_T = 1.8


class Undecidable(ValueError):
    """Bundle estimator did not stabilize (near-separatrix input)."""


class BracketFailure(RuntimeError):
    """No class transition inside the expanded bisection bracket."""


@dataclass(frozen=True)
class SolutionClass:
    n_maxima: int
    bundle_m: int
    x_turn: float | None      # location of the last maximum


@dataclass(frozen=True)
class EigenvalueRecord:
    n: int
    a_n: float
    method: str               # "bisect" or "backward"
    residual: float | None    # |bisect - backward| when both were computed
    tail_m: int


def _forward_span(a: float) -> float:
    # The last maximum sits near 2^(-1/3) a, so 2.5|a| leaves a 3x margin.
    return max(12.0, 2.5 * abs(a))


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:     # NaN fails too
        raise ValueError("tol must be positive and finite")


def _forward_maxima(a: float, stop_when=None):
    """Forward solution over the span and the abscissae of its maxima."""
    traj = integrate(rhs_unscaled, 0.0, a, _forward_span(a), stop_when=stop_when)
    return traj, [x for x, _, kind in find_extrema(traj) if kind == "max"]


def maxima_count(a: float) -> tuple[int, float | None]:
    """Number of maxima of the forward solution and the location of the last.

    Integration stops once m = floor(x*y - 1/2) >= 0 is even,
    0 < w = x*y - (m + 1/2) < 1/2 and x^2 > m + 1.  For even m,
    w' = y - x sin(pi w) and y' = -sin(pi w); w' > 0 at w = 0, and w' < 0 at
    w = 1/2 once x^2 > m + 1; so the strip is forward-invariant, y' < 0 in
    it, and no maximum follows.  The steps before the stop are those of the
    full span, so both results are the same to the bit.
    """
    _, maxima = _forward_maxima(a, trapped_in_even_bundle)
    return len(maxima), (maxima[-1] if maxima else None)


def classify_initial_condition(a: float) -> SolutionClass:
    """Class of the initial condition: maxima count plus landing bundle.

    The bundle index round(x*y - 1/2) is sampled over the last stretch of
    the forward span; if the samples disagree or come out odd the input is
    too close to a separatrix and Undecidable is raised.
    """
    traj, maxima = _forward_maxima(a)
    x_max = traj.x_end
    probes = [0.90 * x_max, 0.93 * x_max, 0.96 * x_max, x_max]
    ms = {bundle_index(x, y) for x, y in zip(probes, traj.sample(probes).tolist())}
    if len(ms) != 1:
        raise Undecidable(f"bundle estimate did not settle for a={a}: {sorted(ms)}")
    m = ms.pop()
    if m % 2 != 0:
        raise Undecidable(f"odd bundle index {m} for a={a}: near-separatrix input")
    return SolutionClass(len(maxima), m, maxima[-1] if maxima else None)


def find_eigenvalue_bisect(n: int, tol: float = 1e-10) -> EigenvalueRecord:
    """Intercept a_n located by bisection on the maxima count, to width tol.

    The count jumps from n to n+1 across a_n; the bracket is seeded from
    the growth law 2^(5/6) sqrt(n) +- 1 and widened in 0.5 steps if needed.
    """
    if n < 1:
        raise ValueError("bisection requires n >= 1")
    _check_tol(tol)

    def above(a: float) -> bool:
        return maxima_count(a)[0] >= n + 1

    center = _A_LAW * math.sqrt(n)
    lo, hi = center - 1.0, center + 1.0
    lo = max(lo, 1e-3)
    tries = 0
    while above(lo):
        lo -= 0.5
        tries += 1
        if tries > 12 or lo <= 0:
            raise BracketFailure(f"no lower bracket for n={n}")
    tries = 0
    while not above(hi):
        hi += 0.5
        tries += 1
        if tries > 12:
            raise BracketFailure(f"no upper bracket for n={n}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return EigenvalueRecord(n, 0.5 * (lo + hi), "bisect", None, 2 * n - 1)


def backward_start(n: int) -> float:
    """Starting abscissa for the backward trace, inside the tail regime.

    x = 1.8 sqrt(2n - 1/2), at scaled t = _TAIL_T, wherever the odd tail
    passes ``tail_is_asymptotic`` there and x lies below the fallback
    max(20, 3 sqrt(max(|n|, 1))): that is every n >= 7.  Elsewhere, n <= 0
    included, the fallback.  Beyond t = 1.8 the steps are bound by stability,
    not accuracy, and a seed error shrinks like exp(-pi (x_s^2 - x^2)/2)
    inward, so the earlier start saves steps and moves a_n by less than the
    integration error.
    """
    fallback = max(20.0, 3.0 * math.sqrt(max(abs(n), 1)))
    if n >= 1:
        x = _TAIL_T * scaling_factor(n)
        if x < fallback and tail_is_asymptotic(AsymptoticTail(2 * n - 1), x):
            return x
    return fallback


def trace_separatrix_backward(n: int, *, x_start: float | None = None,
                              dense: bool = True) -> tuple[EigenvalueRecord, Trajectory]:
    """Trace the n-th separatrix from its odd tail m = 2n-1 down to x = 0.

    The separatrix attracts under decreasing x, so the trace is stable and
    insensitive to the tail truncation and to x_start.  Works for n <= 0
    as well (tails m = -1, -3, ...), which yields the negative intercepts.
    """
    m = 2 * n - 1
    if x_start is None:
        x_start = backward_start(n)
    tail = AsymptoticTail(m)
    y0, yp0 = asymptotic_tail_eval(tail, x_start)
    # The tail must satisfy the equation at the seed point to a small
    # relative residual (at x_start = 1.8 sqrt(2n - 1/2) it is 6.0e-5 at
    # n = 7 and near 4e-5 beyond, as mu/x_start^2 is constant; backward
    # attraction contracts the seed error to nothing).
    if abs(yp0 - rhs_unscaled(x_start, y0)) > 1e-4 * max(abs(yp0), 1e-3):
        raise Undecidable(f"tail m={m} inconsistent at x_start={x_start}")
    traj = integrate(rhs_unscaled, x_start, y0, 0.0, dense=dense)
    return EigenvalueRecord(n, traj.y_end, "backward", None, m), traj


def _scaled_trace(n: int):
    if n < 1:
        raise ValueError("scaled separatrices are defined for n >= 1")
    record, traj = trace_separatrix_backward(n)
    return record, traj, scaling_factor(n)


def scaled_separatrix_evaluator(n: int):
    """(z(t) callable, t_max, record) for the n-th scaled separatrix.

    z(t) = y(s t)/s with s = sqrt(2n - 1/2); z(0) is the scaled intercept
    and the turning point sits near t = 1.
    """
    record, traj, s = _scaled_trace(n)

    def z(t: float) -> float:
        return traj(s * t) / s

    return z, traj.x_start / s, record


def scaled_separatrix(n: int, grid) -> list[float]:
    """Sample z(t) on the given t grid (each t in [0, t_max], else ValueError)."""
    _, traj, s = _scaled_trace(n)
    return (traj.sample([s * t for t in grid]) / s).tolist()


def eigenvalue_table(indices, tol: float = 1e-10) -> list[EigenvalueRecord]:
    """Records for the sorted distinct `indices`; a_n from the backward trace.

    For n >= 1 the bisection value (to width tol) is also computed and the
    cross-method discrepancy stored as the residual.  Only the listed n are
    computed; the intercepts must increase over them.
    """
    ns = sorted(set(indices))
    if not ns:
        raise ValueError("no indices given")
    _check_tol(tol)
    out = []
    for n in ns:
        rec, _ = trace_separatrix_backward(n, dense=False)
        if n >= 1:
            bis = find_eigenvalue_bisect(n, tol)
            rec = EigenvalueRecord(n, rec.a_n, "backward",
                                   abs(bis.a_n - rec.a_n), rec.tail_m)
        out.append(rec)
    for a, b in zip(out, out[1:]):
        if not b.a_n > a.a_n:
            raise RuntimeError(f"intercepts not increasing at n={b.n}")
    return out
