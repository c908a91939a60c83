"""The smooth limit of the scaled separatrices and its exact structure.

As the scaling frequency grows, the scaled eigencurves z(t) converge to a
smooth curve Z(t) on [0, 1] satisfying

    Z Z' + t + Z' sqrt(Z^2 - t^2) = 0,   Z(1) = 1,

whose homogeneous-type first integral, with G = Z/t, is

    (1 + 3G^2) (G + sqrt(G^2-1)) (sqrt(G^2-1) - 2G) / (sqrt(G^2-1) + 2G)
        = -4 / t^3.

Both routes are implemented: direct integration (after a substitution that
removes the square-root singularity at t = 1) and pointwise root-solving of
the first integral.  Z(0) = 2^(1/3) exactly, which fixes the intercept
growth constant sqrt(2) * Z(0) = 2^(5/6).

The module also carries the random-walk coefficient table alpha_{n,k} that
sums the oscillatory moments behind this limit (verified in exact rational
arithmetic against its closed forms) and a consistency check of the finite
frequency energy balance

    z(t)^2 - z(0)^2 + t^2/2 + eta(t) = O(1/lambda),
    eta(t) = integral_0^t s cos(2 lambda s z(s)) ds,

against the closed form eta(t) = integral_0^t z z' (sqrt(1 - s^2/z^2) - 1) ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from .cosine import scaling_lambda
from .ode import IntegratorConfig, _bisect, integrate
from .separatrix import _scaled_trace

__all__ = [
    "CUBE_ROOT_2",
    "GROWTH_CONSTANT",
    "LimitCurve",
    "AlphaTable",
    "DomainViolation",
    "RootNotBracketed",
    "ParityMismatch",
    "QuadratureFailure",
    "EtaCheck",
    "solve_limit_ode",
    "implicit_Z",
    "alpha_recursion",
    "alpha_closed_form",
    "eta_consistency_check",
    "eta_balance_envelope",
]

CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)
GROWTH_CONSTANT = 2.0 ** (5.0 / 6.0)
_K_CONST = -4.0     # fixed by G(1) = 1


class DomainViolation(ArithmeticError):
    """Z^2 < t^2 encountered while integrating (indicates a bug)."""


class RootNotBracketed(RuntimeError):
    """Implicit-solution bracket failed (should not occur on (0, 1])."""


class ParityMismatch(ValueError):
    """alpha_{n,k} closed forms exist only for n, k of equal parity."""


class QuadratureFailure(RuntimeError):
    """Oscillatory quadrature could not be set up."""


@dataclass(frozen=True)
class LimitCurve:
    ts: tuple[float, ...]
    zs: tuple[float, ...]


def _limit_rhs_v(v: float, w: float) -> float:
    # v = sqrt(1-t), W = Z - t: removes the (1-t)^(3/2) singularity at t=1.
    t = 1.0 - v * v
    if w < -1e-13:
        raise DomainViolation(f"Z-t = {w} < 0 at v={v}")
    z = w + t
    arg = w * (w + 2.0 * t)
    if arg < 0.0:
        arg = 0.0
    return 2.0 * v * (1.0 + t / (z + math.sqrt(arg)))


@cache
def _ode_curve():
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, max_steps=200_000)
    return integrate(_limit_rhs_v, 0.0, 0.0, 1.0, cfg)


def solve_limit_ode(grid_size: int = 1001) -> LimitCurve:
    """Integrate the limit-curve equation from t = 1 back to t = 0.

    Returns Z sampled on a uniform t grid; Z(1) = 1 is exact, Z'(1) = -1,
    and Z(0) comes out as 2^(1/3) to within the integration tolerance.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    ts = [i / (grid_size - 1) for i in range(grid_size)]
    # v = 0 (t = 1) reads the initial value W = 0 exactly
    ws = _ode_curve().sample([math.sqrt(1.0 - t) for t in ts])
    return LimitCurve(tuple(ts), tuple((ws + ts).tolist()))


def _implicit_lhs(g):
    s = np.sqrt(np.maximum(g * g - 1.0, 0.0))
    return (1.0 + 3.0 * g * g) * (g + s) * (s - 2.0 * g) / (s + 2.0 * g)


# Smallest t at which _implicit_lhs(1 + 4/t) and _K_CONST / t**3 are finite.
_T_FLOOR = 5.406533694596847e-77


def implicit_Z(t):
    """Z(t) from the first integral, solved for G = Z/t on [1, inf).

    ``t`` is a float (returns a float) or a 1-D grid (returns an ndarray);
    interior points are bisected in lockstep on [1, 1 + 4/t], 90 halvings.
    Z(0) is the analytic limit 2^(1/3) (G grows like 2^(1/3)/t, forced by
    the -4/t^3 right side) and Z(1) = 1.  ValueError outside [0, 1], for
    NaN, and for 0 < t < 5.406533694596847e-77, where the first integral
    overflows on the bracket end 1 + 4/t.
    """
    grid = np.atleast_1d(np.asarray(t, dtype=float))
    if not ((grid >= 0) & (grid <= 1)).all():
        raise ValueError("t must lie in [0, 1]")
    if ((grid > 0) & (grid < _T_FLOOR)).any():
        raise ValueError(f"t must be 0 or at least {_T_FLOOR!r}")
    z = np.where(grid == 0.0, CUBE_ROOT_2, 1.0)
    inner = (grid > 0.0) & (grid < 1.0)
    ts = grid[inner]
    # per point in Python: numpy's power may round t**3 differently
    target = np.array([_K_CONST / v ** 3 for v in ts.tolist()])
    lo, hi = np.ones_like(ts), 1.0 + 4.0 / ts
    flo = _implicit_lhs(lo) - target
    bad = np.sign(flo) * np.sign(_implicit_lhs(hi) - target) > 0
    if bad.any():
        raise RootNotBracketed(f"no sign change for t={ts[bad][0]}")
    z[inner] = ts * _bisect(lambda g: _implicit_lhs(g) - target, lo, hi, flo, 90)
    return z.tolist()[0] if np.ndim(t) == 0 else z


# -- random-walk coefficient table -----------------------------------------


@dataclass(frozen=True)
class AlphaTable:
    """Exact rational alpha_{n,k} for 1 <= n <= n_max, 0 <= k <= k_max.

    Walkers start at n = 2, hop left/right with amplitude -1/2 per k step
    and freeze at n = 1; entries with mixed-parity subscripts vanish, as
    does everything with n > k + 2.
    """

    n_max: int
    k_max: int
    _rows: tuple[tuple[Fraction, ...], ...]   # _rows[k][n-1]

    def value(self, n: int, k: int) -> Fraction:
        if n < 1 or k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        if n > self.n_max or k > self.k_max:
            raise ValueError("outside the computed table")
        return self._rows[k][n - 1]


def alpha_recursion(n_max: int, k_max: int) -> AlphaTable:
    """Fill the table from the hop rules.

    alpha_{1,k} = -alpha_{2,k-1}/2, alpha_{2,k} = -alpha_{3,k-1}/2 (the
    frozen walkers at n=1 never hop back), alpha_{n,k} =
    -(alpha_{n-1,k-1} + alpha_{n+1,k-1})/2 for n >= 3; start
    alpha_{n,0} = [n == 2].
    """
    if n_max < 2 or k_max < 0:
        raise ValueError("need n_max >= 2, k_max >= 0")
    width = max(n_max, k_max + 3) + 2   # support is n <= k + 2
    zero = Fraction(0)
    half = Fraction(1, 2)
    prev = [zero] * (width + 2)
    prev[2] = Fraction(1)
    rows = [tuple(prev[1:n_max + 1])]
    for _ in range(k_max):
        cur = [zero] * (width + 2)
        cur[1] = -half * prev[2]
        cur[2] = -half * prev[3]
        for n in range(3, width + 1):
            cur[n] = -half * (prev[n - 1] + prev[n + 1])
        rows.append(tuple(cur[1:n_max + 1]))
        prev = cur
    return AlphaTable(n_max, k_max, tuple(rows))


def alpha_closed_form(n: int, k: int) -> Fraction:
    """Closed-form alpha_{n,k}; exact and equal to the recursion entry.

    For n >= 2 (n, k of equal parity):

        alpha_{n,k} = (-1)^n (n-1) k! / (2^k ((k+n)/2)! ((k-n)/2 + 1)!),

    zero when (k-n)/2 + 1 < 0.  For n = 1, k = 2p+1:

        alpha_{1,2p+1} = -(2p)! / (2^(2p+1) p! (p+1)!).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if (n - k) % 2 != 0:
        raise ParityMismatch(f"n={n}, k={k} have mixed parity")
    if n == 1:
        p = (k - 1) // 2
        return -Fraction(factorial(2 * p), 2 ** (2 * p + 1) * factorial(p) * factorial(p + 1))
    j = (k - n) // 2 + 1
    if j < 0:
        return Fraction(0)
    sign = 1 if n % 2 == 0 else -1
    return Fraction(sign * (n - 1) * factorial(k),
                    2 ** k * factorial((k + n) // 2) * factorial(j))


# -- oscillatory consistency check -----------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_ENVELOPE_HALF_WIDTH, _ENVELOPE_SAMPLES = 0.02, 13


def _oscillatory_quad(fn, a: float, b: float, panel: float) -> float:
    """Composite 16-point Gauss quadrature with the given panel width; ``fn``
    takes the (panels, 16) node array."""
    n_panels = max(1, math.ceil((b - a) / panel))
    if n_panels > 2_000_000:
        raise QuadratureFailure(f"{n_panels} panels requested")
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = fn(mid[:, None] + half[:, None] * _GL_NODES)
    return float(half @ (vals @ _GL_WEIGHTS))


@dataclass(frozen=True)
class EtaCheck:
    residual_balance: float    # |z(t)^2 - z(0)^2 + t^2/2 + eta_direct|
    mismatch_closed: float     # |eta_direct - eta_closed|
    eta_direct: float
    eta_closed: float


def _eta_at(traj, scale: float, lam: float, t: float) -> EtaCheck:
    """Both eta routes at t on the traced curve z(s) = traj(scale*s)/scale
    of frequency lam."""
    def z(s):
        return (traj.sample((scale * s).ravel()) / scale).reshape(s.shape)

    z_max = z(t * np.arange(33) / 32).max()
    panel = math.pi / (lam * (z_max + t))   # >= 16 points per oscillation

    eta_direct = _oscillatory_quad(
        lambda s: s * np.cos(2.0 * lam * s * z(s)), 0.0, t, panel)

    def closed_integrand(s):
        zs = z(s)
        zp = np.cos(lam * s * zs)
        arg = zs * zs - s * s
        if (arg < 0).any():
            raise QuadratureFailure(f"z(s) < s at s={s[arg < 0][0]}")
        return zp * (np.sqrt(arg) - zs)

    eta_closed = _oscillatory_quad(closed_integrand, 0.0, t, panel)

    z_t, z_0 = z(np.array([t, 0.0])).tolist()
    residual = abs(z_t ** 2 - z_0 ** 2 + 0.5 * t * t + eta_direct)
    return EtaCheck(residual, abs(eta_direct - eta_closed), eta_direct, eta_closed)


def eta_consistency_check(n_index: int, t: float) -> EtaCheck:
    """Evaluate both eta routes on the n-th scaled separatrix at time t.

    The direct route integrates s*cos(2 lambda s z(s)) with panels sized to
    the fastest phase; the closed route integrates z z'(sqrt(1-s^2/z^2)-1).
    The energy-balance residual is O(1/lambda): it halves (roughly) when
    the index doubles.

    The closed route needs z(s) >= s on [0, t].  The limit curve has it
    (Z(t) > t up to Z(1) = 1), but a traced curve runs below z = s on the
    last ~0.11/n before s = 1: there it follows its odd tail, z - 1/s =
    w/(mu s) with w = x y - mu < 0 (see ``separatrix.backward_start``).  The
    layer starts at s = 0.9978 for n = 50, 0.9989 for n = 100 and 0.99988
    for n = 1000, and a t beyond it raises QuadratureFailure ("z(s) < s")
    rather than a number from a formula whose premise fails.
    """
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    traj, scale = _scaled_trace(n_index)
    return _eta_at(traj, scale, scaling_lambda(n_index), t)


def eta_balance_envelope(n_index: int, t: float) -> float:
    """Phase-robust size of the energy-balance residual near t.

    The pointwise residual oscillates with the solution, so its value at a
    single t samples an arbitrary phase (it can even pass through zero).
    The max over a window a few oscillation periods wide measures the
    O(1/lambda) envelope instead, which halves cleanly when n doubles: the
    max at _ENVELOPE_SAMPLES = 13 evenly spaced t within
    _ENVELOPE_HALF_WIDTH = 0.02 of t, clipped to [1e-6, 1].  The separatrix
    is traced once; each sample equals ``eta_consistency_check`` at its t,
    so a window that reaches the layer where that check fails (for n = 100
    any t above 0.9789) raises QuadratureFailure as well.
    """
    lo = max(1e-6, t - _ENVELOPE_HALF_WIDTH)
    hi = min(1.0, t + _ENVELOPE_HALF_WIDTH)
    ts = [lo + (hi - lo) * k / (_ENVELOPE_SAMPLES - 1) for k in range(_ENVELOPE_SAMPLES)]
    if not all(0 < s <= 1 for s in ts):
        raise ValueError("t must lie in (0, 1]")
    traj, scale = _scaled_trace(n_index)
    lam = scaling_lambda(n_index)
    return max(_eta_at(traj, scale, lam, s).residual_balance for s in ts)
