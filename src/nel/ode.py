"""Adaptive Dormand-Prince 5(4) integration with dense output.

Explicit embedded Runge-Kutta pair for scalar and (y, y') pair first-order
systems.  The 5th-order solution is propagated; the difference to the
embedded 4th-order solution drives a PI step-size controller.  Each
accepted step has a record of the coefficients of the standard quartic
interpolant: each loop stores the step's stages and builds all records in
numpy passes after its last step.
``Trajectory.sample`` (values) and ``Trajectory.slope`` (derivatives) read
the records at a whole array of abscissae in the covered interval; the
point reads ``traj(x)`` and ``traj.derivative(x)`` are reads of one.
``find_extrema`` and the package's other cheap root searches run one
lockstep bisection, ``_bisect``.  An optional ``stop_when`` hook is checked
after each accepted step, which is how callers handle blow-up (pole)
detection.

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
NaN behaviour, and the reference loops of the tests, which still call the
builtins, check that the bits agree.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepLimitExceeded",
    "NonFiniteState",
    "integrate",
    "find_extrema",
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

_DENSE_CHUNK = 4096   # scalar steps per numpy pass that builds dense records
_XTOL = 1e-10         # find_extrema's bisection width


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
    integration direction).  For each step i the flat ``_dense`` array holds
    [h, y_left..., q1..., q2..., q3..., q4...] so that on x in
    [xs[i], xs[i+1]]:

        y(x) = y_left + h*(q1*th + q2*th^2 + q3*th^3 + q4*th^4),
        th = (x - xs[i]) / h.
    """

    __slots__ = ("xs", "_ys", "dim", "direction", "step_count", "rejected",
                 "rhs_evals", "_dense", "_f_end", "stopped")

    def __init__(self, dim: int, direction: int):
        self.xs = array("d")
        self._ys = array("d")
        self.dim = dim
        self.direction = direction
        self.step_count = 0
        self.rejected = 0                    # attempts the controller turned down
        self.rhs_evals = 0                   # inline model-field stages included
        self._dense: array | None = None
        self._f_end: float | None = None     # y' at the last sample, scalar only
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
        """(th, rec): each abscissa's offset th = (x - x_i)/h into its step i,
        as a column, and step i's dense record.  ValueError outside the
        trajectory (NaN included) or without dense output."""
        if self._dense is None:
            raise ValueError("trajectory was integrated without dense output")
        x = np.asarray(xs, dtype=float)
        nodes = np.frombuffer(self.xs, dtype=float)
        d = self.direction
        if not (((x - nodes[0]) * d >= 0) & ((x - nodes[-1]) * d <= 0)).all():
            raise ValueError(f"abscissa outside trajectory range [{nodes[0]}, {nodes[-1]}]")
        # the step a node starts; the end node closes the last step
        i = np.minimum(np.searchsorted(nodes * d, x * d, side="right") - 1, len(nodes) - 2)
        rec = np.frombuffer(self._dense, dtype=float).reshape(-1, 1 + 5 * self.dim)[i]
        return (x[:, None] - nodes[i][:, None]) / rec[:, :1], rec

    def __call__(self, x: float):
        return (float if self.dim == 1 else tuple)(self.sample([x])[0].tolist())

    def derivative(self, x: float) -> float:
        return self.slope([x]).tolist()[0]

    def sample(self, xs) -> np.ndarray:
        """Dense output at each abscissa in ``xs``: shape (len(xs),) when
        scalar, else (len(xs), dim).  Raises ValueError for an abscissa
        outside the trajectory (NaN included) or without dense output.
        """
        th, rec = self._steps(xs)
        dim = self.dim
        h = rec[:, :1]
        y0, q1, q2, q3, q4 = (rec[:, 1 + k * dim:1 + (k + 1) * dim] for k in range(5))
        y = y0 + h * th * (q1 + th * (q2 + th * (q3 + th * q4)))
        return y[:, 0] if dim == 1 else y

    def slope(self, xs) -> np.ndarray:
        """Derivative of the dense output at each abscissa in ``xs`` of a
        scalar trajectory, shape (len(xs),); the same step lookup and checks
        as ``sample``."""
        if self.dim != 1:
            raise ValueError("slope requires a scalar trajectory")
        th, rec = self._steps(xs)
        th = th[:, 0]
        q1, q2, q3, q4 = rec[:, 2], rec[:, 3], rec[:, 4], rec[:, 5]
        return q1 + th * (2 * q2 + th * (3 * q3 + th * 4 * q4))


def integrate(rhs: Callable, x0: float, y0, x1: float,
              cfg: IntegratorConfig | None = None, *,
              dense: bool = True,
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
    if isinstance(y0, (int, float)):
        return _integrate_scalar(rhs, x0, float(y0), x1, cfg, dense, stop_when)
    y0 = tuple(float(v) for v in y0)
    if len(y0) != 2:
        raise ValueError(f"y0 must be a float or a pair, got {len(y0)} components")
    return _integrate_pair(rhs, x0, y0, x1, cfg, dense, stop_when)


def _checked_step(h: float, x0: float) -> float:
    """h when positive and finite; a scaled slope that overflows drives the
    automatic first step to 0, which would divide by zero or never advance."""
    if not 0 < h < math.inf:
        raise NonFiniteState(f"no positive finite initial step at x={x0}")
    return h


def _initial_step_scalar(f, x0, y0, f0, direction, rtol, atol, span):
    sc = atol + rtol * abs(y0)
    d0 = abs(y0) / sc
    d1 = abs(f0) / sc
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = _checked_step(min(h0, span), x0)
    y1 = y0 + h0 * direction * f0
    f1 = f(x0 + h0 * direction, y1)
    d2 = abs(f1 - f0) / sc / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return _checked_step(min(100 * h0, h1, span), x0)


def _integrate_scalar(f, x0, y0, x1, cfg, dense, stop_when):
    from .cosine import PI, rhs_unscaled    # cosine imports this module
    # Inline stages must keep rhs_unscaled's operands and their order, so
    # that both routes give the same bits.
    inline = f is rhs_unscaled
    cos, isfinite = math.cos, math.isfinite
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    traj = Trajectory(1, direction)
    xs_append, ys_append = traj.xs.append, traj._ys.append
    dn = array("d") if dense else None
    dn_fromlist = dn.fromlist if dense else None

    x, y = x0, y0
    k1 = f(x, y)
    if not (isfinite(y) and isfinite(k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs_append(x)
    ys_append(y)

    if cfg.initial_step > 0:
        h = min(cfg.initial_step, span)
    else:
        h = _initial_step_scalar(f, x0, y0, k1, direction, rtol, atol, span)
    err_prev = 1.0
    fac_max = _FAC_MAX
    ay = abs(y)

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
            if dense:
                dn_fromlist([hs, k1, k3, k4, k5, k6])
            x, y, k1, ay = x_new, y_new, k7, ay_new
            xs_append(x)
            ys_append(y)
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
            fac = _SAFETY * err ** -0.2
            h *= fac if fac > _FAC_MIN else _FAC_MIN
            fac_max = 1.0
            if x + h * direction == x:
                raise NonFiniteState(f"step size underflow at x={x}")
    else:
        raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")

    traj.step_count = steps = len(traj.xs) - 1
    traj.rejected = attempt - steps
    traj.rhs_evals = (1 if cfg.initial_step > 0 else 2) + 6 * attempt
    traj._f_end = k1
    if dense:
        _dense_records(dn, traj._ys, (k1,))
    traj._dense = dn
    return traj


def _dense_records(dn, ys, f_end):
    """Rewrite a loop's stage records [hs, k1, k3, k4, k5, k6], each k of
    d = len(f_end) components, in place, _DENSE_CHUNK steps per numpy pass,
    into the dense records [h, y_left, q1, q2, q3, q4] of ``Trajectory``.
    y_left is the step's left sample and k7 the next step's k1 (``f_end``,
    y' at the last sample, after the last step).  Each q sums the same
    products in the same order as a per-step build, and numpy rounds every
    product and sum on its own, so the bits agree."""
    d = len(f_end)
    rec = np.frombuffer(dn, dtype=float).reshape(-1, 1 + 5 * d)
    y_left = np.frombuffer(ys, dtype=float).reshape(-1, d)
    n = len(rec)
    for a in range(0, n, _DENSE_CHUNK):
        b = min(a + _DENSE_CHUNK, n)
        r = rec[a:b]
        k1, k3, k4, k5, k6 = (r[:, 1 + j * d:1 + (j + 1) * d] for j in range(5))
        # k7 views the k1 columns of this chunk's later rows: build every q
        # before those columns are overwritten
        k7 = (rec[a + 1:b + 1, 1:1 + d] if b < n
              else np.concatenate((rec[a + 1:, 1:1 + d], [f_end])))
        q2 = _P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7
        q3 = _P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7
        q4 = _P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7
        r[:, 1 + d:1 + 2 * d] = k1
        r[:, 1:1 + d] = y_left[a:b]
        r[:, 1 + 2 * d:1 + 3 * d], r[:, 1 + 3 * d:1 + 4 * d], r[:, 1 + 4 * d:] = q2, q3, q4


def _initial_step_pair(f, x0, y0, f0, direction, rtol, atol, span):
    (y, v), (k, l) = y0, f0
    scu, scw = atol + rtol * abs(y), atol + rtol * abs(v)
    d0 = math.sqrt(((y / scu) ** 2 + (v / scw) ** 2) / 2)
    d1 = math.sqrt(((k / scu) ** 2 + (l / scw) ** 2) / 2)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = _checked_step(min(h0, span), x0)
    k1, l1 = f(x0 + h0 * direction, (y + h0 * direction * k, v + h0 * direction * l))
    d2 = math.sqrt((((k1 - k) / scu) ** 2 + ((l1 - l) / scw) ** 2) / 2) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return _checked_step(min(100 * h0, h1, span), x0)


def _integrate_pair(f, x0, y0, x1, cfg, dense, stop_when):
    # _integrate_scalar on the pair (y, v); k_s and l_s are the stage slopes of y and v.
    from .painleve import painleve_rhs      # painleve imports this module
    # Inline stages must keep painleve_rhs's operands and their order, so
    # that both routes give the same bits.
    inline = f is painleve_rhs
    isfinite, sqrt = math.isfinite, math.sqrt
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    traj = Trajectory(2, direction)
    xs, ys = traj.xs, traj._ys
    dn = array("d") if dense else None

    x, (y, v) = x0, y0
    k1, l1 = f(x, y0)
    if not (isfinite(y) and isfinite(v) and isfinite(k1) and isfinite(l1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs.append(x)
    ys.extend(y0)

    if cfg.initial_step > 0:
        h = min(cfg.initial_step, span)
    else:
        h = _initial_step_pair(f, x0, y0, (k1, l1), direction, rtol, atol, span)
    err_prev = 1.0
    fac_max = _FAC_MAX
    ay, av = abs(y), abs(v)

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
                dn.fromlist([hs, k1, l1, k3, l3, k4, l4, k5, l5, k6, l6])
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
            fac = _SAFETY * err ** -0.2
            h *= fac if fac > _FAC_MIN else _FAC_MIN
            fac_max = 1.0
            if x + h * direction == x:
                raise NonFiniteState(f"step size underflow at x={x}")
    else:
        raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")

    traj.step_count = steps = len(traj.xs) - 1
    traj.rejected = attempt - steps
    traj.rhs_evals = (1 if cfg.initial_step > 0 else 2) + 6 * attempt
    if dense:
        _dense_records(dn, traj._ys, (k1, l1))
    traj._dense = dn
    return traj


def _bisect(g, lo, hi, flo, iters) -> np.ndarray:
    """Lockstep bisection of g (array in, array out) on the brackets
    [lo, hi], either order, with g(lo) of the sign of ``flo``.  Bracket j is
    halved ``iters[j]`` times (or ``iters`` times); one whose midpoint hits
    g = 0 collapses onto it and stays.  Returns the final midpoints."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    pos = np.asarray(flo) > 0
    iters = np.broadcast_to(iters, lo.shape)
    for k in range(int(iters.max(initial=0))):
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        run = iters > k
        zero = fm == 0.0
        left = (fm > 0) == pos
        lo = np.where(run & (left | zero), mid, lo)
        hi = np.where(run & (zero | ~left), mid, hi)
    return 0.5 * (lo + hi)


def find_extrema(traj: Trajectory) -> list[tuple[float, float, str]]:
    """Locate interior extrema of a scalar trajectory.

    Sign changes of y' are bracketed on the stored derivative samples plus
    three interior probes of the dense interpolant per step, then bisected
    in lockstep on the interpolant derivative, a bracket of width w
    min(80, max(20, ceil(log2(w/_XTOL)))) times, _XTOL = 1e-10; of two
    extrema closer than 10 _XTOL the first is kept.  A plus-to-minus
    crossing is a maximum.  Returns (x, y, kind) tuples in trajectory order;
    constant stretches contribute nothing.
    """
    if traj.dim != 1:
        raise ValueError("find_extrema requires a scalar trajectory")
    if traj._dense is None:
        raise ValueError("trajectory lacks dense output")

    nodes = np.frombuffer(traj.xs, dtype=float)
    # y' at every node: each step's k1 column, then the final derivative
    fs = np.append(np.frombuffer(traj._dense, dtype=float)[2::6], traj._f_end)
    a, b = nodes[:-1, None], nodes[1:, None]
    inner = a + (b - a) * np.array([0.25, 0.5, 0.75])
    # per step: the five probes a, a + w/4, a + w/2, a + 3w/4, b
    px = np.hstack([a, inner, b])
    pf = np.column_stack([fs[:-1], traj.slope(inner.ravel()).reshape(-1, 3), fs[1:]])
    fl, fr = pf[:, :-1].ravel(), pf[:, 1:].ravel()
    k = np.nonzero((fl != 0.0) & ~(fl * fr >= 0.0))[0]
    xl, xr, fl = px[:, :-1].ravel()[k], px[:, 1:].ravel()[k], fl[k]
    iters = [min(80, max(20, math.ceil(math.log2(max(abs(r - l) / _XTOL, 2.0)))))
             for l, r in zip(xl.tolist(), xr.tolist())]
    x_star = _bisect(traj.slope, xl, xr, fl, iters)

    out = []
    for x, y, f in zip(x_star.tolist(), traj.sample(x_star).tolist(), fl.tolist()):
        if out and abs(out[-1][0] - x) < 10 * _XTOL:
            continue
        # In +x order a maximum is a +(left) to -(right) crossing of y';
        # backward trajectories visit the right side first.
        rising = f > 0 if traj.direction > 0 else f < 0
        out.append((x, y, "max" if rising else "min"))
    return out
