"""Adaptive Dormand-Prince 5(4) integration with dense output.

Explicit embedded Runge-Kutta pair for scalar and (y, y') pair first-order
systems.  The 5th-order solution is propagated; the difference to the
embedded 4th-order solution drives a PI step-size controller.  Each
kept step stores one self-contained record, its two ends, left sample and
stage slopes, from which a read builds the standard quartic interpolant of
the step.  A dense run keeps every step; a scalar run without dense output
keeps only its first and last sample, and one given the abscissae to read
also keeps the records of only the steps that hold them.
``Trajectory.sample`` (values) and ``Trajectory.slope`` (derivatives) read
the dense output at a whole array of abscissae in the kept steps; the
point reads ``traj(x)`` and ``traj.derivative(x)`` are reads of one.
The package's cheap root searches run one lockstep bisection, ``_bisect``;
both eigenvalue ladders, the cosine maxima count and the Painleve-I fates,
close their flips with one finder, ``_find_flip``.  An optional
``stop_when`` hook is checked after each accepted step, which is how
callers handle blow-up (pole) detection.

Each kind of state runs on its own specialised float-only loop: the
oscillatory model equation needs millions of scalar steps at tight
tolerances, and every Painleve-I fate is a run of the pair loop.  Each loop
evaluates its model field inline at its six stages: the scalar loop the
slope field ``cosine.rhs_unscaled``, cos(pi*x*y), and the pair loop the
Painleve-I field ``painleve.painleve_rhs``, (y', y^2 + x).  Any other
callable, a wrapper of either included, is called at each stage, with the
same bits for the same field.
Both loops compare floats instead of calling ``min``, ``max`` or ``abs``:
``max(a, b)`` is written ``b if b > a else a``, which keeps the builtin's
NaN behaviour, and the reference loop of the tests, which still calls the
builtins, checks that the bits agree.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepLimitExceeded",
    "NonFiniteState",
    "integrate",
]


class StepLimitExceeded(RuntimeError):
    """Raised when the step budget is exhausted before reaching the endpoint."""


class NonFiniteState(RuntimeError):
    """Raised when the state or its derivative becomes NaN/Inf (pole or bug)."""


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Error weights: 5th-order minus embedded 4th-order solution.
_E1, _E3, _E4 = 71 / 57600, -71 / 16695, 71 / 1920
_E5, _E6, _E7 = -17253 / 339200, 22 / 525, -1 / 40
# Dense-output matrix (quartic interpolant of the pair).  Row s, column j
# is the coefficient of theta^(j+1) multiplying k_s; stage 2 contributes
# nothing.
_P12, _P13, _P14 = -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432
_P32, _P33, _P34 = 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799
_P42, _P43, _P44 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
_P52, _P53, _P54 = 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632
_P62, _P63, _P64 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
_P72, _P73, _P74 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423

_SAFETY = 0.9
_BETA = 0.04          # PI controller: h *= safety * err^-expo1 * errprev^beta
_EXPO1 = 0.2 - 0.75 * _BETA
# Rejected steps only: an accepted step has err <= 1 and err_prev >= 1e-4,
# so its factor is at least 0.9 * 1e-4 ** 0.04 ~ 0.62.
_FAC_MIN = 0.2
_FAC_MAX = 6.0

_SECANT_WIDTH = 1e-2  # _find_flip halves wider brackets
# Secant overshoot, see _secant_probe.  Over Painleve-I y0 in -3..5 the secant
# estimate misses the flip by a median 5-12 % and a 90th percentile 11-24 % of
# its distance from the nearer end; a step a quarter past it covers nine in ten.
_PAST = 0.25


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 0.0      # 0 selects the step automatically
    max_steps: int = 5_000_000

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if type(self.max_steps) is not int or self.max_steps <= 0:     # bool is not a count
            raise ValueError("max_steps must be a positive int")
        if not 0 <= self.initial_step < math.inf:
            raise ValueError("initial_step must be finite and >= 0")


class Trajectory:
    """Sampled solution with a per-step quartic dense evaluator.

    ``xs`` holds the accepted step endpoints (strictly monotone in the
    integration direction); a scalar run without dense output, or given
    the abscissae to read, keeps only its first and last sample.  Each kept
    step appends to the flat ``_dense`` array the record

        [x_left, x_right, y_left, hs, k1, k3, k4, k5, k6, k7],

    3 + 7*dim floats: the step's ends, its left sample, the signed step hs
    it took and its stage slopes, each y and k of ``dim`` components, k7
    the slope at x_right.  A read at x builds

        q1 = k1,  q_j = P1j*k1 + P3j*k3 + P4j*k4 + P5j*k5 + P6j*k6 + P7j*k7
        (j = 2, 3, 4),
        y(x) = y_left + hs*(q1*th + q2*th^2 + q3*th^3 + q4*th^4),
        th = (x - x_left) / hs.
    """

    __slots__ = ("xs", "_ys", "dim", "direction", "step_count", "rejected",
                 "rhs_evals", "_dense", "stopped")

    def __init__(self, dim: int, direction: int):
        self.xs = array("d")
        self._ys = array("d")
        self.dim = dim
        self.direction = direction
        self.step_count = 0
        self.rejected = 0                    # attempts the controller turned down
        self.rhs_evals = 0                   # inline model-field stages included
        self._dense: array | None = None
        self.stopped = False

    # -- samples -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.xs)

    def state(self, i: int):
        d = self.dim
        if d == 1:
            return self._ys[i]
        return tuple(self._ys[i * d:(i + 1) * d])

    @property
    def x_start(self) -> float:
        return self.xs[0]

    @property
    def x_end(self) -> float:
        return self.xs[-1]

    @property
    def y_end(self):
        return self.state(len(self.xs) - 1)

    # -- dense output ----------------------------------------------------

    def _steps(self, xs):
        """(th, h, y_left, q1, q2, q3, q4) of each abscissa's step: its
        offset th = (x - x_left)/h into the step and h as columns, and the
        step's left sample and quartic coefficients, shape (len(xs), dim).
        ValueError outside the kept steps (NaN included) or without dense
        output."""
        if self._dense is None:
            raise ValueError("trajectory was integrated without dense output")
        x = np.asarray(xs, dtype=float)
        d, dim = self.direction, self.dim
        rec = np.frombuffer(self._dense, dtype=float).reshape(-1, 3 + 7 * dim)
        # the last record that starts at or before x: a node starts its
        # step, the end node closes the last one.  It starts at or before x
        # once i >= 0, and NaN fails x <= x_right.
        i = np.searchsorted(rec[:, 0] * d, x * d, side="right") - 1
        if (i < 0).any() or not (x * d <= rec[i, 1] * d).all():
            raise ValueError("abscissa outside the steps the trajectory kept")
        rec = rec[i]
        y_left, h = rec[:, 2:2 + dim], rec[:, 2 + dim:3 + dim]
        k1, k3, k4, k5, k6, k7 = (rec[:, 3 + j * dim:3 + (j + 1) * dim] for j in range(1, 7))
        return ((x[:, None] - rec[:, :1]) / h, h, y_left, k1,
                *_quartic(k1, k3, k4, k5, k6, k7))

    def __call__(self, x: float):
        return (float if self.dim == 1 else tuple)(self.sample([x])[0].tolist())

    def derivative(self, x: float) -> float:
        return self.slope([x]).tolist()[0]

    def sample(self, xs) -> np.ndarray:
        """Dense output at each abscissa in ``xs``: shape (len(xs),) when
        scalar, else (len(xs), dim).  Raises ValueError for an abscissa
        outside the kept steps (NaN included) or without dense output.
        """
        y = _quartic_value(*self._steps(xs))
        return y[:, 0] if self.dim == 1 else y

    def slope(self, xs) -> np.ndarray:
        """Derivative of the dense output at each abscissa in ``xs`` of a
        scalar trajectory, shape (len(xs),); the same step lookup and checks
        as ``sample``."""
        if self.dim != 1:
            raise ValueError("slope requires a scalar trajectory")
        th, _, _, q1, q2, q3, q4 = (c[:, 0] for c in self._steps(xs))
        return q1 + th * (2 * q2 + th * (3 * q3 + th * 4 * q4))


def _quartic(k1, k3, k4, k5, k6, k7):
    """(q2, q3, q4), the theta^2..theta^4 coefficients of a step's quartic
    interpolant from its stage slopes (q1 = k1)."""
    q2 = _P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7
    q3 = _P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7
    q4 = _P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7
    return q2, q3, q4


def _quartic_value(th, h, y_left, q1, q2, q3, q4):
    """The quartic interpolant at offset th into its step of signed size h."""
    return y_left + h * th * (q1 + th * (q2 + th * (q3 + th * q4)))


def integrate(rhs: Callable, x0: float, y0, x1: float,
              cfg: IntegratorConfig | None = None, *,
              dense=True,
              stop_when: Callable | None = None) -> Trajectory:
    """Integrate y' = rhs(x, y) from x0 to x1 (either direction).

    ``y0`` is a float (scalar problem) or a pair (y, y'); a sequence of
    any other length raises ValueError before ``rhs`` is called.  The
    local error per step is kept below abs_tol + rel_tol*|y| in a scaled
    RMS norm.  Deterministic for a fixed configuration.

    Raises StepLimitExceeded when cfg.max_steps attempts are spent and
    NonFiniteState when the state or derivative stops being finite or a
    rejected step has shrunk until it no longer moves x.  When
    ``stop_when(x, y)`` returns true after an accepted step, integration
    ends there and the trajectory is flagged ``stopped``.

    ``dense=False`` stores no step records, so ``sample`` and ``slope``
    refuse the trajectory, and a scalar run keeps only its first and last
    sample; its ends and counts are those of the dense run.  Given instead
    an array of abscissae in [x0, x1] (any order, repeats allowed), a scalar
    run is that run, which also keeps the records of only the steps holding
    one of them: ``sample`` reads there the bits it reads off the dense run
    and refuses an abscissa in a step not kept.  An abscissa outside the
    span (NaN included), a pair y0 or a ``stop_when`` with abscissae raises
    ValueError before ``rhs`` is called.

    ``rhs`` is called for k1 and the automatic first step's trial.  When it
    is ``cosine.rhs_unscaled`` (scalar) or ``painleve.painleve_rhs`` (pair)
    itself, the six stage evaluations of each attempt are inline; any other
    callable, a wrapper of those included, is called for them, and the
    trajectory is the same to the bit, its counts ``step_count``,
    ``rejected`` and ``rhs_evals`` (inline stages counted) included.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if x1 == x0:
        raise ValueError("x1 must differ from x0")
    grid = None
    if not isinstance(dense, bool) and np.ndim(dense) != 0:
        grid, dense = _grid(dense, x0, x1, y0, stop_when), True
    if isinstance(y0, (int, float)):
        return _integrate_scalar(rhs, x0, float(y0), x1, cfg, dense, stop_when, grid)
    y0 = tuple(float(v) for v in y0)
    if len(y0) != 2:
        raise ValueError(f"y0 must be a float or a pair, got {len(y0)} components")
    return _integrate_pair(rhs, x0, y0, x1, cfg, dense, stop_when)


def _grid(xs, x0, x1, y0, stop_when) -> np.ndarray:
    """The abscissae of a grid read, as a float array; ValueError unless
    they lie in [x0, x1] (NaN fails) and the run is scalar and not stopped
    by a hook."""
    x = np.asarray(xs, dtype=float)
    if x.ndim != 1:
        raise ValueError("abscissae must be a one-dimensional array")
    if not isinstance(y0, (int, float)) or stop_when is not None:
        raise ValueError("abscissae are read from scalar runs without stop_when")
    d = 1 if x1 > x0 else -1
    if not (((x - x0) * d >= 0) & ((x - x1) * d <= 0)).all():
        raise ValueError(f"abscissa outside trajectory range [{x0}, {x1}]")
    return x


def _checked_step(h: float, x0: float) -> float:
    """h when positive and finite; a scaled slope that overflows drives the
    automatic first step to 0, which would divide by zero or never advance."""
    if not 0 < h < math.inf:
        raise NonFiniteState(f"no positive finite initial step at x={x0}")
    return h


def _first_step(f, x0, y0, f0, x1, cfg) -> float:
    """The first step from x0 toward x1: ``cfg.initial_step`` clipped to the
    span, or the automatic choice (Hairer, Norsett and Wanner, II.4) from
    the tuples y0 and f0 = f(x0, y0), in the scaled RMS norm of the
    components; f maps (x, tuple) to a tuple.  The RMS of one component u
    is math.sqrt(u ** 2) = |u| for 1e-150 < |u| < 1e150."""
    span = abs(x1 - x0)
    if cfg.initial_step > 0:
        return min(cfg.initial_step, span)
    direction = 1 if x1 > x0 else -1
    n = len(y0)
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, sc)) / n)
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, sc)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = _checked_step(min(h0, span), x0)
    f1 = f(x0 + h0 * direction, tuple(v + h0 * direction * g for v, g in zip(y0, f0)))
    d2 = math.sqrt(sum(((a - b) / s) ** 2 for a, b, s in zip(f1, f0, sc)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return _checked_step(min(100 * h0, h1, span), x0)


def _integrate_scalar(f, x0, y0, x1, cfg, dense, stop_when, grid):
    from .cosine import PI, rhs_unscaled    # cosine imports this module
    # Inline stages must keep rhs_unscaled's operands and their order, so
    # that both routes give the same bits.
    inline = f is rhs_unscaled
    cos, isfinite = math.cos, math.isfinite
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    traj = Trajectory(1, direction)
    xs_append, ys_append = traj.xs.append, traj._ys.append
    dn = array("d") if dense else None
    dn_fromlist = dn.fromlist if dense else None
    if grid is not None:
        # the abscissae as sorted keys x * direction; nxt is the first
        # unread key, inf once all are read
        keys = np.sort(grid * direction).tolist()
        j, m = 0, len(keys)
        inf = math.inf
        nxt = keys[0] if m else inf

    x, y = x0, y0
    k1 = f(x, y)
    if not (isfinite(y) and isfinite(k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs_append(x)
    ys_append(y)

    h = _first_step(lambda x, s: (f(x, s[0]),), x0, (y0,), (k1,), x1, cfg)
    err_prev = 1.0
    fac_max = _FAC_MAX
    ay = abs(y)
    rejected = 0

    for attempt in range(1, cfg.max_steps + 1):
        rem = x1 - x if direction > 0 else x - x1   # |x1 - x|: x never passes x1
        last = (rem <= h)
        if last:
            h = rem
        hs = h * direction

        if inline:
            k2 = cos(PI * (x + _C2 * hs) * (y + hs * (_A21 * k1)))
            k3 = cos(PI * (x + _C3 * hs) * (y + hs * (_A31 * k1 + _A32 * k2)))
            k4 = cos(PI * (x + _C4 * hs) * (y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3)))
            k5 = cos(PI * (x + _C5 * hs) * (y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)))
            k6 = cos(PI * (x + hs) * (y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)))
        else:
            k2 = f(x + _C2 * hs, y + hs * (_A21 * k1))
            k3 = f(x + _C3 * hs, y + hs * (_A31 * k1 + _A32 * k2))
            k4 = f(x + _C4 * hs, y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = f(x + _C5 * hs, y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = f(x + hs, y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        x_new = x1 if last else x + hs
        k7 = cos(PI * x_new * y_new) if inline else f(x_new, y_new)

        err_raw = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        ay_new = -y_new if y_new < 0.0 else y_new
        err = (-err_raw if err_raw < 0.0 else err_raw) / (atol + rtol * (ay_new if ay_new > ay else ay))

        if err <= 1.0:
            if not (isfinite(y_new) and isfinite(k7)):
                raise NonFiniteState(f"non-finite state at x={x_new}")
            # a grid run keeps the steps that hold an abscissa: a node
            # abscissa takes the step it starts, x1 the last
            if dense and (grid is None or nxt < x_new * direction or (last and j < m)):
                dn_fromlist([x, x_new, y, hs, k1, k3, k4, k5, k6, k7])
                if grid is None:
                    xs_append(x_new)
                    ys_append(y_new)
                else:
                    j = m if last else bisect_left(keys, x_new * direction, j)
                    nxt = keys[j] if j < m else inf
            x, y, k1, ay = x_new, y_new, k7, ay_new
            if stop_when is not None and stop_when(x, y):
                traj.stopped = True
                break
            if last:
                break
            # 0.0 ** -_EXPO1 raises ZeroDivisionError; an exact step grows by fac_max
            fac = fac_max if err == 0.0 else _SAFETY * err ** -_EXPO1 * err_prev ** _BETA
            h *= fac if fac < fac_max else fac_max
            err_prev = 1e-4 if 1e-4 > err else err
            fac_max = _FAC_MAX
        else:
            rejected += 1
            fac = _SAFETY * err ** -0.2
            h *= fac if fac > _FAC_MIN else _FAC_MIN
            fac_max = 1.0
            if x + h * direction == x:
                raise NonFiniteState(f"step size underflow at x={x}")
    else:
        raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")

    if not dense or grid is not None:
        xs_append(x)
        ys_append(y)
    traj.step_count = attempt - rejected
    traj.rejected = rejected
    traj.rhs_evals = (1 if cfg.initial_step > 0 else 2) + 6 * attempt
    traj._dense = dn
    return traj


def _integrate_pair(f, x0, y0, x1, cfg, dense, stop_when):
    # _integrate_scalar on the pair (y, v); k_s and l_s are the stage slopes of y and v.
    from .painleve import painleve_rhs      # painleve imports this module
    # Inline stages must keep painleve_rhs's operands and their order, so
    # that both routes give the same bits.
    inline = f is painleve_rhs
    isfinite, sqrt = math.isfinite, math.sqrt
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    traj = Trajectory(2, direction)
    xs, ys = traj.xs, traj._ys
    dn = array("d") if dense else None

    x, (y, v) = x0, y0
    k1, l1 = f(x, y0)
    if not (isfinite(y) and isfinite(v) and isfinite(k1) and isfinite(l1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs.append(x)
    ys.extend(y0)

    h = _first_step(f, x0, y0, (k1, l1), x1, cfg)
    err_prev = 1.0
    fac_max = _FAC_MAX
    ay, av = abs(y), abs(v)
    rejected = 0

    for attempt in range(1, cfg.max_steps + 1):
        rem = x1 - x if direction > 0 else x - x1   # |x1 - x|: x never passes x1
        last = (rem <= h)
        if last:
            h = rem
        hs = h * direction

        if inline:
            # painleve_rhs at (X, (Y, V)) is (V, Y * Y + X)
            u = y + hs * (_A21 * k1)
            k2 = v + hs * (_A21 * l1)
            l2 = u * u + (x + _C2 * hs)
            u = y + hs * (_A31 * k1 + _A32 * k2)
            k3 = v + hs * (_A31 * l1 + _A32 * l2)
            l3 = u * u + (x + _C3 * hs)
            u = y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            k4 = v + hs * (_A41 * l1 + _A42 * l2 + _A43 * l3)
            l4 = u * u + (x + _C4 * hs)
            u = y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            k5 = v + hs * (_A51 * l1 + _A52 * l2 + _A53 * l3 + _A54 * l4)
            l5 = u * u + (x + _C5 * hs)
            u = y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            k6 = v + hs * (_A61 * l1 + _A62 * l2 + _A63 * l3 + _A64 * l4 + _A65 * l5)
            l6 = u * u + (x + hs)
        else:
            k2, l2 = f(x + _C2 * hs, (y + hs * (_A21 * k1), v + hs * (_A21 * l1)))
            k3, l3 = f(x + _C3 * hs, (y + hs * (_A31 * k1 + _A32 * k2),
                                      v + hs * (_A31 * l1 + _A32 * l2)))
            k4, l4 = f(x + _C4 * hs, (y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3),
                                      v + hs * (_A41 * l1 + _A42 * l2 + _A43 * l3)))
            k5, l5 = f(x + _C5 * hs, (y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4),
                                      v + hs * (_A51 * l1 + _A52 * l2 + _A53 * l3 + _A54 * l4)))
            k6, l6 = f(x + hs, (y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5),
                                v + hs * (_A61 * l1 + _A62 * l2 + _A63 * l3 + _A64 * l4 + _A65 * l5)))
        y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        v_new = v + hs * (_B1 * l1 + _B3 * l3 + _B4 * l4 + _B5 * l5 + _B6 * l6)
        x_new = x1 if last else x + hs
        if inline:
            k7, l7 = v_new, y_new * y_new + x_new
        else:
            k7, l7 = f(x_new, (y_new, v_new))

        eu = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        ew = hs * (_E1 * l1 + _E3 * l3 + _E4 * l4 + _E5 * l5 + _E6 * l6 + _E7 * l7)
        ay_new, av_new = -y_new if y_new < 0.0 else y_new, -v_new if v_new < 0.0 else v_new
        scu = atol + rtol * (ay_new if ay_new > ay else ay)
        scw = atol + rtol * (av_new if av_new > av else av)
        err = sqrt(((eu / scu) ** 2 + (ew / scw) ** 2) / 2)

        if err <= 1.0:
            if not (isfinite(y_new) and isfinite(v_new) and isfinite(k7) and isfinite(l7)):
                raise NonFiniteState(f"non-finite state at x={x_new}")
            if dense:
                dn.fromlist([x, x_new, y, v, hs, k1, l1, k3, l3, k4, l4, k5, l5, k6, l6,
                             k7, l7])
            x, y, v, k1, l1, ay, av = x_new, y_new, v_new, k7, l7, ay_new, av_new
            xs.append(x)
            ys.fromlist([y, v])
            if stop_when is not None and stop_when(x, (y, v)):
                traj.stopped = True
                break
            if last:
                break
            # 0.0 ** -_EXPO1 raises ZeroDivisionError; an exact step grows by fac_max
            fac = fac_max if err == 0.0 else _SAFETY * err ** -_EXPO1 * err_prev ** _BETA
            h *= fac if fac < fac_max else fac_max
            err_prev = 1e-4 if 1e-4 > err else err
            fac_max = _FAC_MAX
        else:
            rejected += 1
            fac = _SAFETY * err ** -0.2
            h *= fac if fac > _FAC_MIN else _FAC_MIN
            fac_max = 1.0
            if x + h * direction == x:
                raise NonFiniteState(f"step size underflow at x={x}")
    else:
        raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")

    traj.step_count = attempt - rejected
    traj.rejected = rejected
    traj.rhs_evals = (1 if cfg.initial_step > 0 else 2) + 6 * attempt
    traj._dense = dn
    return traj


def _bisect(g, lo, hi, flo, iters: int) -> np.ndarray:
    """Lockstep bisection of g (array in, array out) on the brackets
    [lo, hi], either order, with g(lo) of the sign of ``flo``.  Every
    bracket is halved ``iters`` times; one whose midpoint hits g = 0
    collapses onto it and stays.  Returns the final midpoints."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    pos = np.asarray(flo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        zero = fm == 0.0
        left = (fm > 0) == pos
        lo = np.where(left | zero, mid, lo)
        hi = np.where(zero | ~left, mid, hi)
    return 0.5 * (lo + hi)


def _halvings(width: float, tol: float) -> int:
    """Halvings that take a bracket of this width to width <= tol."""
    return max(0, math.ceil(math.log2(width / tol)))


def _secant_probe(lo, f_lo, back_lo, hi, f_hi, back_hi, tol):
    """Next probe strictly inside (lo, hi), or None.

    The secant estimate t of the flip comes from the nearer end (smaller
    |score|) and the previous end on its side, or, when that lands outside,
    from the two ends.  The probe is t stepped _PAST of its distance from
    the nearer end further on, so that it lands across the flip and the
    bracket closes from both sides.  Equal scores at the two ends give None.
    """
    if f_lo == f_hi:
        return None
    if abs(f_lo) <= abs(f_hi):
        near, f_near, back, toward = lo, f_lo, back_lo, 1.0
    else:
        near, f_near, back, toward = hi, f_hi, back_hi, -1.0
    t = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    if back is not None and back[1] != f_near:
        u = near - f_near * (near - back[0]) / (f_near - back[1])
        if lo < u < hi:
            t = u
    a = near + toward * max((1.0 + _PAST) * abs(t - near), 0.5 * tol)
    return a if lo < a < hi else None


def _find_flip(probe, lo: float, hi: float, at_lo, at_hi, tol: float) -> float:
    """Midpoint of a bracket of width <= tol inside [lo, hi] whose ends have
    opposite verdicts.

    ``probe(a)`` returns (verdict, score), and at_lo and at_hi are its
    values at lo and hi; they are not probed again.  The score has the
    verdict's sign and should be near-linear in a on each side of the flip.
    Brackets wider than _SECANT_WIDTH are halved, narrower ones take
    _secant_probe steps.  A halving replaces any step after which halving
    could no longer finish within _halvings(hi - lo, tol) + 2 probes; so no
    score costs more probes than that.  A constant score (the cosine
    ladder's 0.0) gives no secant estimate, so every probe is a plain
    halving at the bracket midpoint, _halvings(hi - lo, tol) in all.
    """
    (v_lo, f_lo), (_, f_hi) = at_lo, at_hi
    back_lo = back_hi = None          # the previous end on each side
    budget = _halvings(hi - lo, tol) + 2
    spent = 0
    while hi - lo > tol:
        a = 0.5 * (lo + hi)
        if hi - lo <= _SECANT_WIDTH:
            s = _secant_probe(lo, f_lo, back_lo, hi, f_hi, back_hi, tol)
            if s is not None and spent + 1 + _halvings(max(s - lo, hi - s), tol) <= budget:
                a = s
        v, f = probe(a)
        spent += 1
        if v == v_lo:
            back_lo, lo, f_lo = (lo, f_lo), a, f
        else:
            back_hi, hi, f_hi = (hi, f_hi), a, f
    return 0.5 * (lo + hi)

