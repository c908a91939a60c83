"""Separatrix eigenvalues of y'(x) = cos(pi*x*y).

Initial conditions fall into classes: for a between consecutive intercepts
a_{n-1} < a < a_n the solution shows exactly n maxima before decaying into
an even-m bundle.  The class boundaries are separatrices, each carrying the
odd tail (2n - 1/2)/x.  They are unstable forward (neighbours veer off to
the adjacent even bundles) but attract under backward integration, so two
independent computations of a_n are available:

* bisection on the maxima count of forward solutions, which the end value
  of x*y fixes by a level-crossing law (``maxima_count``), and
* backward integration seeded inside the odd-m bundle, next to the tail.
"""

from __future__ import annotations

import math

import numpy as np

from .cosine import (_STRIP_DX2, _STRIP_THETA, rhs_unscaled, scaling_factor,
                     trapped_in_even_bundle)
from .ode import Trajectory, _find_flip, integrate

__all__ = [
    "Undecidable",
    "BracketFailure",
    "maxima_count",
    "find_eigenvalue_bisect",
    "trace_separatrix_backward",
    "backward_start",
    "scaled_separatrix",
]

_A_LAW = 2.0 ** (5.0 / 6.0)   # large-n intercept growth a_n ~ A sqrt(n)


class Undecidable(ValueError):
    """Backward seed outside the odd-bundle strip (see _backward_seed)."""


class BracketFailure(RuntimeError):
    """No class transition inside the bisection's law bracket
    2^(5/6) sqrt(n) +- 1, which holds a_n at every n traced."""


def _forward_span(a: float) -> float:
    # The last maximum sits near 2^(-1/3) a, so 2.5|a| leaves a 3x margin.
    return max(12.0, 2.5 * abs(a))


def _check_tol(tol: float, n: int) -> None:
    # Below the float spacing at the bracket's upper end, 2^(5/6) sqrt(n) + 1,
    # adjacent ends stay wider than tol for ever; the floor is taken at
    # 2^(5/6) sqrt(n) + 7, a conservative bound above that end.
    floor = math.ulp(_A_LAW * math.sqrt(n) + 7.0) if n >= 1 else 0.0
    if not (0 < tol < math.inf and tol >= floor):     # NaN fails too
        raise ValueError(f"tol {tol!r} must be positive, finite and at least {floor!r}, "
                         f"the float spacing at the bisection bracket end for n={n}")


def maxima_count(a: float) -> int:
    """Number of maxima of the forward solution, read from its end state.

    With u = x*y, y' = cos(pi u) vanishes only on the levels u = k + 1/2,
    and there u' = y + x y' = y.  Since y' = 1 wherever y = 0, y changes
    sign at most once, upward.  If it does, at x0, then u < 0 on (0, x0)
    and u(x0) = 0; crossing -1/2 back upward needs y > 0, so u stays in
    (-1/2, 0] before x0 and crosses no level there.  While y > 0, u crosses
    each level upward only, and y' turns from + to - (a maximum) at even k;
    while y < 0, it crosses downward only, with a maximum at odd k.  So the
    end value u of the run fixes the count: floor((u - 1/2)/2) + 1 for
    u > 1/2, floor((-1/2 - u)/2) + 1 for u < -1/2, and 0 otherwise.

    The run (no dense output) stops once m = floor(x*y - 1/2) >= 0 is even,
    0 < w = x*y - (m + 1/2) < 1/2 and x^2 > m + 1.  For even m,
    w' = y - x sin(pi w) and y' = -sin(pi w); w' > 0 at w = 0, and w' < 0 at
    w = 1/2 once x^2 > m + 1; so the strip is forward-invariant, u never
    reaches the next level, and no maximum follows.
    """
    traj = integrate(rhs_unscaled, 0.0, a, _forward_span(a), dense=False,
                     stop_when=trapped_in_even_bundle)
    u = traj.x_end * traj.y_end
    if u > 0.5:
        return math.floor((u - 0.5) / 2) + 1
    if u < -0.5:
        return math.floor((-0.5 - u) / 2) + 1
    return 0


def find_eigenvalue_bisect(n: int, tol: float = 1e-10) -> float:
    """Intercept a_n located by bisection on the maxima count, to width tol.

    The count jumps from n to n+1 across a_n; the bracket is the growth
    law's 2^(5/6) sqrt(n) +- 1 (a_n - 2^(5/6) sqrt(n) is -0.179 at n = 1
    and -0.021 at n = 100), and a count that does not flip between its two
    ends raises BracketFailure.  A tol below ulp(2^(5/6) sqrt(n) + 7)
    raises ValueError first.
    """
    if n < 1:
        raise ValueError("bisection requires n >= 1")
    _check_tol(tol, n)

    def above(a: float) -> bool:
        return maxima_count(a) >= n + 1

    center = _A_LAW * math.sqrt(n)
    lo, hi = center - 1.0, center + 1.0
    if (above(lo), above(hi)) != (False, True):
        raise BracketFailure(f"the count does not flip in [{lo!r}, {hi!r}] for n={n}")
    # the score 0.0 is constant, so every probe of _find_flip is a halving
    return _find_flip(lambda a: (above(a), 0.0), lo, hi, (False, 0.0), (True, 0.0), tol)


def _strip_edges(n: int) -> tuple[float, float]:
    """(x_c, x_s): where the odd-bundle strip stops being invariant, and the
    strip start, cosine._STRIP_EFOLDS e-folds of contraction outside it."""
    mu = 2 * n - 0.5
    theta = _STRIP_THETA
    xc2 = (abs(mu) - theta) / math.sin(math.pi * theta)
    return math.sqrt(xc2), math.sqrt(xc2 + _STRIP_DX2)


def backward_start(n: int) -> float:
    """Starting abscissa x_s of the backward trace, the same rule for every n.

    With mu = 2n - 1/2 and w = x y - mu, the equation gives y' = sin(pi w)
    and w' = (mu + w)/x + x sin(pi w).  Take the strip between w = 0 and
    w = -theta sign(mu):
    - mu > 0: at w = 0, w' = mu/x > 0; at w = -theta, w' < 0 wherever
      x^2 sin(pi theta) > mu - theta;
    - mu < 0: at w = 0, w' = mu/x < 0; at w = theta, w' > 0 wherever
      x^2 sin(pi theta) > |mu| - theta.
    So under decreasing x no solution leaves the strip before
    x_c^2 = (|mu| - theta)/sin(pi theta).  Inside it
    df/dy = pi x cos(pi w) >= pi x cos(pi theta), so two backward solutions
    in it approach each other by at least
    exp(-cos(pi theta) pi (x_s^2 - x_c^2)/2) = exp(-K) by x_c.  With
    theta = _STRIP_THETA = 1/3 < 1/2 <= |mu| and K = cosine._STRIP_EFOLDS = 40,
    x_s^2 = x_c^2 + 4 K/pi: any seed in the strip gives the same trace to
    e^-40 of its error, so the seed is irrelevant.  For n >= 1, x_c tends
    to scaled t = x/sqrt(mu) ~ 1.0746, beyond the turning point t = 1.
    """
    return _strip_edges(n)[1]


def _backward_seed(n: int, x_start: float) -> float:
    """y = mu/x - mu/(pi x^3) at x_start, that is w = -mu/(pi x^2).

    Undecidable unless x_start > x_c and w lies strictly inside the strip
    between 0 and -_STRIP_THETA sign(mu) (see backward_start).
    """
    mu = 2 * n - 0.5
    y0 = mu / x_start - mu / (math.pi * x_start ** 3)
    w = x_start * y0 - mu
    depth = -w if mu > 0 else w         # into the strip from its edge w = 0
    if not (x_start > _strip_edges(n)[0] and 0 < depth < _STRIP_THETA):
        raise Undecidable(f"seed of n={n} at x_start={x_start} is outside the odd-bundle strip")
    return y0


def trace_separatrix_backward(n: int, *, x_start: float | None = None,
                              dense=True) -> Trajectory:
    """Trace the n-th separatrix from its odd tail m = 2n-1 down to x = 0.

    The trace ends at x_end == 0.0 exactly, so its y_end is the intercept a_n.

    The separatrix attracts under decreasing x, so the trace is stable and
    insensitive to the seed and to x_start.  Works for n <= 0 as well
    (tails m = -1, -3, ...), which yields the negative intercepts.  The seed
    at x_start (default ``backward_start``) is a point of the odd-bundle
    strip (``_backward_seed``).  ``dense`` is passed to ``integrate``: True,
    False, or the abscissae whose values the trace keeps.
    """
    if x_start is None:
        x_start = backward_start(n)
    y0 = _backward_seed(n, x_start)
    return integrate(rhs_unscaled, x_start, y0, 0.0, dense=dense)


def _scale(n: int) -> float:
    if n < 1:
        raise ValueError("scaled separatrices are defined for n >= 1")
    return scaling_factor(n)


def _scaled_trace(n: int) -> tuple[Trajectory, float]:
    s = _scale(n)
    return trace_separatrix_backward(n), s


def scaled_separatrix(n: int, grid) -> list[float]:
    """Sample z(t) = y(s t)/s, s = sqrt(2n - 1/2), on the given t grid.

    z(0) is the scaled intercept and the turning point sits near t = 1.
    Each t must lie in [0, t_max], else ValueError; t_max =
    backward_start(n)/s is 5.9 at n = 1, 2.81 at n = 4, 1.771 at n = 13,
    1.086 at n = 1000 and about 1.075 at large n.  The trace keeps the
    records of only the steps that hold a grid point, and the grid is a
    ``sample`` of them.
    """
    s = _scale(n)
    xs = s * np.asarray(grid, dtype=float)
    return (trace_separatrix_backward(n, dense=xs).sample(xs) / s).tolist()

