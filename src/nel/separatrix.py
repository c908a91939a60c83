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
# Odd-bundle strip -theta < w < 0, w = x*y - (2n - 1/2), and the e-folds by
# which it contracts seed errors before its edge x_c (see backward_start).
_STRIP_THETA = 1.0 / 3.0
_STRIP_EFOLDS = 40.0


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


def _check_tol(tol: float, n: int) -> None:
    # Below the float spacing at the widest bracket end of the bisection for
    # n, 2^(5/6) sqrt(n) + 7, adjacent ends stay wider than tol for ever.
    floor = math.ulp(_A_LAW * math.sqrt(n) + 7.0) if n >= 1 else 0.0
    if not (0 < tol < math.inf and tol >= floor):     # NaN fails too
        raise ValueError(f"tol {tol!r} must be positive, finite and at least {floor!r}, "
                         f"the float spacing at the bisection bracket end for n={n}")


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
    the growth law 2^(5/6) sqrt(n) +- 1 and widened in 0.5 steps, 12 at
    most.  A tol below ulp(2^(5/6) sqrt(n) + 7) raises ValueError first.
    """
    if n < 1:
        raise ValueError("bisection requires n >= 1")
    _check_tol(tol, n)

    def above(a: float) -> bool:
        return maxima_count(a)[0] >= n + 1

    center = _A_LAW * math.sqrt(n)
    lo, hi = max(center - 1.0, 1e-3), center + 1.0
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


def _strip_edges(n: int) -> tuple[float, float]:
    """(x_c, x_s): where the odd-bundle strip stops being invariant, and the
    strip start, _STRIP_EFOLDS e-folds of contraction outside it."""
    mu = 2 * n - 0.5
    theta = _STRIP_THETA
    xc2 = (mu - theta) / math.sin(math.pi * theta)
    return (math.sqrt(xc2),
            math.sqrt(xc2 + 2 * _STRIP_EFOLDS / (math.pi * math.cos(math.pi * theta))))


def backward_start(n: int) -> float:
    """Starting abscissa for the backward trace.

    For n >= 7 it is the nearer of two starts; n = 7..12 take the first,
    n >= 13 the second:
    - x = 1.8 sqrt(2n - 1/2), at scaled t = _TAIL_T, where the odd tail
      passes ``tail_is_asymptotic`` and x lies below the fallback
      max(20, 3 sqrt(max(|n|, 1))): that is every n >= 7;
    - the strip start x_s (``_strip_edges``), at t ~ 1.771 for n = 13 and
      t -> 1.075 as n grows.
    Elsewhere, n <= 0 included, the fallback.

    The strip: with mu = 2n - 1/2 and w = x y - mu, the equation gives
    y' = sin(pi w) and w' = (mu + w)/x + x sin(pi w).  At w = 0, w' > 0; at
    w = -theta, w' < 0 wherever x^2 sin(pi theta) > mu - theta, that is
    x > x_c.  So under decreasing x no solution leaves -theta < w < 0 before
    x_c.  Inside the strip df/dy = pi x cos(pi w) >= pi x cos(pi theta), so
    two backward solutions in it approach each other by at least
    exp(-cos(pi theta) pi (x_s^2 - x_c^2)/2) = exp(-_STRIP_EFOLDS) by x_c.
    With theta = _STRIP_THETA = 1/3, x_c^2 = 2(mu - 1/3)/sqrt(3) and
    x_s^2 = x_c^2 + 4 K/pi, K = _STRIP_EFOLDS = 40: any seed in the strip
    gives the same trace to e^-40 of its error, so the seed is irrelevant.
    x_c sits at t ~ 1.0746, beyond the turning point t = 1.  Between x_s and
    t = 1.8 the steps are bound by stability, not accuracy, so the nearer
    start saves them and moves a_n by less than the integration error.
    """
    fallback = max(20.0, 3.0 * math.sqrt(max(abs(n), 1)))
    if n >= 1:
        x = _TAIL_T * scaling_factor(n)
        if x < fallback and tail_is_asymptotic(AsymptoticTail(2 * n - 1), x):
            return min(x, _strip_edges(n)[1])
    return fallback


def _backward_seed(n: int, x_start: float) -> float:
    """y at x_start for the n-th backward trace.

    Starts at or beyond t = _TAIL_T, and every start for n <= 6, take the
    six-term odd tail, which must satisfy the equation there to a relative
    residual of 1e-4 (6.0e-5 at t = 1.8 and n = 7, near 4e-5 beyond, as
    mu/x_start^2 is constant).  Nearer starts for n >= 7 are strip starts:
    y = mu/x - mu/(pi x^3), that is w = -1/(pi t^2), which must lie in the
    strip -_STRIP_THETA < w < 0 with x_start > x_c (see backward_start).
    """
    m = 2 * n - 1
    mu = m + 0.5
    if n >= 7 and x_start < _TAIL_T * scaling_factor(n):
        y0 = mu / x_start - mu / (math.pi * x_start ** 3)
        if not (x_start > _strip_edges(n)[0] and -_STRIP_THETA < x_start * y0 - mu < 0):
            raise Undecidable(f"seed of n={n} at x_start={x_start} is outside the odd-bundle strip")
        return y0
    y0, yp0 = asymptotic_tail_eval(AsymptoticTail(m), x_start)
    if abs(yp0 - rhs_unscaled(x_start, y0)) > 1e-4 * max(abs(yp0), 1e-3):
        raise Undecidable(f"tail m={m} inconsistent at x_start={x_start}")
    return y0


def trace_separatrix_backward(n: int, *, x_start: float | None = None,
                              dense: bool = True) -> tuple[EigenvalueRecord, Trajectory]:
    """Trace the n-th separatrix from its odd tail m = 2n-1 down to x = 0.

    The separatrix attracts under decreasing x, so the trace is stable and
    insensitive to the seed and to x_start.  Works for n <= 0 as well
    (tails m = -1, -3, ...), which yields the negative intercepts.  The seed
    at x_start is the six-term tail or, for n >= 7 below t = _TAIL_T, a
    point of the odd-bundle strip (``_backward_seed``).
    """
    if x_start is None:
        x_start = backward_start(n)
    y0 = _backward_seed(n, x_start)
    traj = integrate(rhs_unscaled, x_start, y0, 0.0, dense=dense)
    return EigenvalueRecord(n, traj.y_end, "backward", None, 2 * n - 1), traj


def _scaled_trace(n: int):
    if n < 1:
        raise ValueError("scaled separatrices are defined for n >= 1")
    record, traj = trace_separatrix_backward(n)
    return record, traj, scaling_factor(n)


def scaled_separatrix_evaluator(n: int):
    """(z(t) callable, t_max, record) for the n-th scaled separatrix.

    z(t) = y(s t)/s with s = sqrt(2n - 1/2); z(0) is the scaled intercept
    and the turning point sits near t = 1.  t_max = backward_start(n)/s:
    5.9 or more for n <= 6, 1.8 for n = 7..12, then falling from 1.771 at
    n = 13 to 1.086 at n = 1000 and about 1.075 at large n.
    """
    record, traj, s = _scaled_trace(n)

    def z(t: float) -> float:
        return traj.sample([s * t]).tolist()[0] / s

    return z, traj.x_start / s, record


def scaled_separatrix(n: int, grid) -> list[float]:
    """Sample z(t) on the given t grid (each t in [0, t_max], else ValueError).

    t_max is that of ``scaled_separatrix_evaluator``: about 1.08 at large n.
    """
    _, traj, s = _scaled_trace(n)
    return (traj.sample([s * t for t in grid]) / s).tolist()


def eigenvalue_table(indices, tol: float = 1e-10) -> list[EigenvalueRecord]:
    """Records for the sorted distinct `indices`; a_n from the backward trace.

    For n >= 1 the bisection value (to width tol) is also computed and the
    cross-method discrepancy stored as the residual.  Only the listed n are
    computed; the intercepts must increase over them.  A tol too small for
    the largest n (see find_eigenvalue_bisect) raises ValueError first.
    """
    ns = sorted(set(indices))
    if not ns:
        raise ValueError("no indices given")
    _check_tol(tol, ns[-1])
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
