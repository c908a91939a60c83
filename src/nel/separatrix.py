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
from dataclasses import dataclass, field

from .cosine import (AsymptoticTail, asymptotic_tail_eval, bundle_index,
                     rhs_unscaled, scaling_factor)
from .ode import IntegratorConfig, Trajectory, find_extrema, integrate

__all__ = [
    "SeparatrixConfig",
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


class Undecidable(ValueError):
    """Bundle estimator did not stabilize (near-separatrix input)."""


class BracketFailure(RuntimeError):
    """No class transition inside the expanded bisection bracket."""


@dataclass(frozen=True)
class SeparatrixConfig:
    ode: IntegratorConfig = field(default_factory=IntegratorConfig)
    tol: float = 1e-10        # bisection width on a

    def __post_init__(self):
        if not 0 < self.tol < math.inf:     # NaN fails too
            raise ValueError("tol must be positive and finite")


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


def _forward_maxima(a: float, cfg: SeparatrixConfig | None):
    """Forward solution over the span and the abscissae of its maxima."""
    if cfg is None:
        cfg = SeparatrixConfig()
    traj = integrate(rhs_unscaled, 0.0, a, _forward_span(a), cfg.ode)
    return traj, [x for x, _, kind in find_extrema(traj) if kind == "max"]


def maxima_count(a: float, cfg: SeparatrixConfig | None = None) -> tuple[int, float | None]:
    """Number of maxima of the forward solution and the location of the last."""
    _, maxima = _forward_maxima(a, cfg)
    return len(maxima), (maxima[-1] if maxima else None)


def classify_initial_condition(a: float, cfg: SeparatrixConfig | None = None) -> SolutionClass:
    """Class of the initial condition: maxima count plus landing bundle.

    The bundle index round(x*y - 1/2) is sampled over the last stretch of
    the forward span; if the samples disagree or come out odd the input is
    too close to a separatrix and Undecidable is raised.
    """
    traj, maxima = _forward_maxima(a, cfg)
    x_max = traj.x_end
    probes = [0.90 * x_max, 0.93 * x_max, 0.96 * x_max, x_max]
    ms = {bundle_index(x, y) for x, y in zip(probes, traj.sample(probes).tolist())}
    if len(ms) != 1:
        raise Undecidable(f"bundle estimate did not settle for a={a}: {sorted(ms)}")
    m = ms.pop()
    if m % 2 != 0:
        raise Undecidable(f"odd bundle index {m} for a={a}: near-separatrix input")
    return SolutionClass(len(maxima), m, maxima[-1] if maxima else None)


def find_eigenvalue_bisect(n: int, cfg: SeparatrixConfig | None = None) -> EigenvalueRecord:
    """Intercept a_n located by bisection on the maxima count.

    The count jumps from n to n+1 across a_n; the bracket is seeded from
    the growth law 2^(5/6) sqrt(n) +- 1 and widened in 0.5 steps if needed.
    """
    if n < 1:
        raise ValueError("bisection requires n >= 1")
    if cfg is None:
        cfg = SeparatrixConfig()

    def above(a: float) -> bool:
        return maxima_count(a, cfg)[0] >= n + 1

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
    while hi - lo > cfg.tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return EigenvalueRecord(n, 0.5 * (lo + hi), "bisect", None, 2 * n - 1)


def backward_start(n: int) -> float:
    """Starting abscissa for the backward trace, inside the tail regime."""
    return max(20.0, 3.0 * math.sqrt(max(abs(n), 1)))


def trace_separatrix_backward(n: int, cfg: SeparatrixConfig | None = None, *,
                              x_start: float | None = None,
                              dense: bool = True) -> tuple[EigenvalueRecord, Trajectory]:
    """Trace the n-th separatrix from its odd tail m = 2n-1 down to x = 0.

    The separatrix attracts under decreasing x, so the trace is stable and
    insensitive to the tail truncation and to x_start.  Works for n <= 0
    as well (tails m = -1, -3, ...), which yields the negative intercepts.
    """
    if cfg is None:
        cfg = SeparatrixConfig()
    m = 2 * n - 1
    if x_start is None:
        x_start = backward_start(n)
    tail = AsymptoticTail(m)
    y0, yp0 = asymptotic_tail_eval(tail, x_start)
    # The tail must satisfy the equation at the seed point to a small
    # relative residual (the absolute residual at x_start ~ 3 sqrt(n) stays
    # near 1e-6 for all n because mu/x_start^2 is constant; backward
    # attraction contracts the seed error to nothing).
    if abs(yp0 - rhs_unscaled(x_start, y0)) > 1e-4 * max(abs(yp0), 1e-3):
        raise Undecidable(f"tail m={m} inconsistent at x_start={x_start}")
    traj = integrate(rhs_unscaled, x_start, y0, 0.0, cfg.ode, dense=dense)
    return EigenvalueRecord(n, traj.y_end, "backward", None, m), traj


def _scaled_trace(n: int, cfg: SeparatrixConfig | None):
    if n < 1:
        raise ValueError("scaled separatrices are defined for n >= 1")
    record, traj = trace_separatrix_backward(n, cfg)
    return record, traj, scaling_factor(n)


def scaled_separatrix_evaluator(n: int, cfg: SeparatrixConfig | None = None):
    """(z(t) callable, t_max, record) for the n-th scaled separatrix.

    z(t) = y(s t)/s with s = sqrt(2n - 1/2); z(0) is the scaled intercept
    and the turning point sits near t = 1.
    """
    record, traj, s = _scaled_trace(n, cfg)

    def z(t: float) -> float:
        return traj(s * t) / s

    return z, traj.x_start / s, record


def scaled_separatrix(n: int, grid, cfg: SeparatrixConfig | None = None) -> list[float]:
    """Sample z(t) on the given t grid (each t in [0, t_max], else ValueError)."""
    _, traj, s = _scaled_trace(n, cfg)
    return (traj.sample([s * t for t in grid]) / s).tolist()


def eigenvalue_table(n_min: int, n_max: int,
                     cfg: SeparatrixConfig | None = None) -> list[EigenvalueRecord]:
    """Records for n_min..n_max; a_n from the backward trace.

    For n >= 1 the bisection value is also computed and the cross-method
    discrepancy stored as the residual.
    """
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    if cfg is None:
        cfg = SeparatrixConfig()
    out = []
    for n in range(n_min, n_max + 1):
        rec, _ = trace_separatrix_backward(n, cfg, dense=False)
        if n >= 1:
            bis = find_eigenvalue_bisect(n, cfg)
            rec = EigenvalueRecord(n, rec.a_n, "backward",
                                   abs(bis.a_n - rec.a_n), rec.tail_m)
        out.append(rec)
    for a, b in zip(out, out[1:]):
        if not b.a_n > a.a_n:
            raise RuntimeError(f"intercepts not increasing at n={b.n}")
    return out
