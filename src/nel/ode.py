"""Adaptive Dormand-Prince 5(4) integration with dense output.

Explicit embedded Runge-Kutta pair for scalar and small-vector first-order
systems.  The 5th-order solution is propagated; the difference to the
embedded 4th-order solution drives a PI step-size controller.  Every
accepted step stores the coefficients of the standard quartic interpolant,
which ``Trajectory.sample`` (values) and ``Trajectory.slope`` (derivatives)
read at a whole array of abscissae in the covered interval; the point reads
``traj(x)`` and ``traj.derivative(x)`` are reads of one.  ``find_extrema``
and the package's other cheap root searches run one lockstep bisection,
``_bisect``.  An optional ``stop_when`` hook is checked after each accepted
step, which is how callers handle blow-up (pole) detection.

Scalar problems run on a specialised float-only loop; it is several times
faster than the generic tuple path and the oscillatory model equation needs
millions of steps at tight tolerances.
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
_FAC_MIN = 0.2
_FAC_MAX = 6.0


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 0.0      # 0 selects the step automatically
    max_step: float = math.inf
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.initial_step < 0:
            raise ValueError("initial_step must be >= 0")


class Trajectory:
    """Sampled solution with a per-step quartic dense evaluator.

    ``xs`` holds the accepted step endpoints (strictly monotone in the
    integration direction).  For each step i the flat ``_dense`` array holds
    [h, y_left..., q1..., q2..., q3..., q4...] so that on x in
    [xs[i], xs[i+1]]:

        y(x) = y_left + h*(q1*th + q2*th^2 + q3*th^3 + q4*th^4),
        th = (x - xs[i]) / h.
    """

    __slots__ = ("xs", "_ys", "dim", "direction", "step_count", "_dense",
                 "_fs", "stopped")

    def __init__(self, dim: int, direction: int):
        self.xs = array("d")
        self._ys = array("d")
        self.dim = dim
        self.direction = direction
        self.step_count = 0
        self._dense: array | None = None
        self._fs: array | None = None
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

    ``y0`` may be a float (scalar problem) or a sequence of floats.  The
    local error per step is kept below abs_tol + rel_tol*|y| in a scaled
    RMS norm.  Deterministic for a fixed configuration.

    Raises StepLimitExceeded when cfg.max_steps attempts are spent and
    NonFiniteState when the state or derivative stops being finite.  When
    ``stop_when(x, y)`` returns true after an accepted step, integration
    ends there and the trajectory is flagged ``stopped``.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if x1 == x0:
        raise ValueError("x1 must differ from x0")
    if isinstance(y0, (int, float)):
        return _integrate_scalar(rhs, x0, float(y0), x1, cfg, dense, stop_when)
    return _integrate_vector(rhs, x0, tuple(float(v) for v in y0), x1, cfg, dense, stop_when)


def _initial_step_scalar(f, x0, y0, f0, direction, rtol, atol, span):
    sc = atol + rtol * abs(y0)
    d0 = abs(y0) / sc
    d1 = abs(f0) / sc
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = f(x0 + h0 * direction, y1)
    d2 = abs(f1 - f0) / sc / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _integrate_scalar(f, x0, y0, x1, cfg, dense, stop_when):
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    traj = Trajectory(1, direction)
    xs, ys = traj.xs, traj._ys
    fs = array("d")
    dn = array("d") if dense else None

    x, y = x0, y0
    k1 = f(x, y)
    if not (math.isfinite(y) and math.isfinite(k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs.append(x)
    ys.append(y)
    fs.append(k1)

    if cfg.initial_step > 0:
        h = min(cfg.initial_step, cfg.max_step, span)
    else:
        h = min(_initial_step_scalar(f, x0, y0, k1, direction, rtol, atol, span),
                cfg.max_step)
    err_prev = 1.0
    fac_max = _FAC_MAX
    attempts = 0
    max_steps = cfg.max_steps

    while True:
        attempts += 1
        if attempts > max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} exhausted at x={x}")
        if h > cfg.max_step:
            h = cfg.max_step
        last = (abs(x1 - x) <= h)
        if last:
            h = abs(x1 - x)
        hs = h * direction

        k2 = f(x + _C2 * hs, y + hs * (_A21 * k1))
        k3 = f(x + _C3 * hs, y + hs * (_A31 * k1 + _A32 * k2))
        k4 = f(x + _C4 * hs, y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(x + _C5 * hs, y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(x + hs, y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        x_new = x1 if last else x + hs
        k7 = f(x_new, y_new)

        err_raw = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        sc = atol + rtol * max(abs(y), abs(y_new))
        err = abs(err_raw) / sc

        if err <= 1.0:
            if not (math.isfinite(y_new) and math.isfinite(k7)):
                raise NonFiniteState(f"non-finite state at x={x_new}")
            if dense:
                dn.append(hs)
                dn.append(y)
                dn.append(k1)
                dn.append(_P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7)
                dn.append(_P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7)
                dn.append(_P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7)
            x, y, k1 = x_new, y_new, k7
            xs.append(x)
            ys.append(y)
            fs.append(k1)
            traj.step_count += 1
            if stop_when is not None and stop_when(x, y):
                traj.stopped = True
                break
            if last:
                break
            if err == 0.0:
                fac = fac_max
            else:
                fac = _SAFETY * err ** -_EXPO1 * err_prev ** _BETA
                fac = min(fac_max, max(_FAC_MIN, fac))
            h *= fac
            err_prev = max(err, 1e-4)
            fac_max = _FAC_MAX
        else:
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0

    traj._fs = fs
    traj._dense = dn
    return traj


def _initial_step_vector(f, x0, y0, f0, direction, rtol, atol, span):
    n = len(y0)
    sc = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, sc)) / n)
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, sc)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(v + h0 * direction * g for v, g in zip(y0, f0))
    f1 = f(x0 + h0 * direction, y1)
    d2 = math.sqrt(sum(((a - b) / s) ** 2 for a, b, s in zip(f1, f0, sc)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _integrate_vector(f, x0, y0, x1, cfg, dense, stop_when):
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    dim = len(y0)
    rng = range(dim)
    traj = Trajectory(dim, direction)
    xs, ys = traj.xs, traj._ys
    dn = array("d") if dense else None

    x, y = x0, y0
    k1 = tuple(f(x, y))
    if not all(map(math.isfinite, y)) or not all(map(math.isfinite, k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs.append(x)
    ys.extend(y)

    if cfg.initial_step > 0:
        h = min(cfg.initial_step, cfg.max_step, span)
    else:
        h = min(_initial_step_vector(f, x0, y0, k1, direction, rtol, atol, span),
                cfg.max_step)
    err_prev = 1.0
    fac_max = _FAC_MAX
    attempts = 0
    max_steps = cfg.max_steps

    while True:
        attempts += 1
        if attempts > max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} exhausted at x={x}")
        if h > cfg.max_step:
            h = cfg.max_step
        last = (abs(x1 - x) <= h)
        if last:
            h = abs(x1 - x)
        hs = h * direction

        k2 = f(x + _C2 * hs, tuple(y[i] + hs * (_A21 * k1[i]) for i in rng))
        k3 = f(x + _C3 * hs, tuple(y[i] + hs * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
        k4 = f(x + _C4 * hs, tuple(y[i] + hs * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                                   for i in rng))
        k5 = f(x + _C5 * hs, tuple(y[i] + hs * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                                                + _A54 * k4[i]) for i in rng))
        k6 = f(x + hs, tuple(y[i] + hs * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                                          + _A64 * k4[i] + _A65 * k5[i]) for i in rng))
        y_new = tuple(y[i] + hs * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i]
                                   + _B5 * k5[i] + _B6 * k6[i]) for i in rng)
        x_new = x1 if last else x + hs
        k7 = f(x_new, y_new)

        err = 0.0
        for i in rng:
            e = hs * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i]
                      + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(y_new[i]))
            err += (e / sc) ** 2
        err = math.sqrt(err / dim)

        if err <= 1.0:
            ok = True
            for v in y_new:
                if not math.isfinite(v):
                    ok = False
            for v in k7:
                if not math.isfinite(v):
                    ok = False
            if not ok:
                raise NonFiniteState(f"non-finite state at x={x_new}")
            if dense:
                dn.append(hs)
                dn.extend(y)
                dn.extend(k1)
                for pa, pb, pc, pd, pe, pf in ((_P12, _P32, _P42, _P52, _P62, _P72),
                                               (_P13, _P33, _P43, _P53, _P63, _P73),
                                               (_P14, _P34, _P44, _P54, _P64, _P74)):
                    dn.extend(pa * k1[i] + pb * k3[i] + pc * k4[i]
                              + pd * k5[i] + pe * k6[i] + pf * k7[i] for i in rng)
            x, y, k1 = x_new, y_new, tuple(k7)
            xs.append(x)
            ys.extend(y)
            traj.step_count += 1
            if stop_when is not None and stop_when(x, y):
                traj.stopped = True
                break
            if last:
                break
            if err == 0.0:
                fac = fac_max
            else:
                fac = _SAFETY * err ** -_EXPO1 * err_prev ** _BETA
                fac = min(fac_max, max(_FAC_MIN, fac))
            h *= fac
            err_prev = max(err, 1e-4)
            fac_max = _FAC_MAX
        else:
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0

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


def find_extrema(traj: Trajectory, xtol: float = 1e-10) -> list[tuple[float, float, str]]:
    """Locate interior extrema of a scalar trajectory.

    Sign changes of y' are bracketed on the stored derivative samples plus
    three interior probes of the dense interpolant per step, then bisected
    in lockstep on the interpolant derivative, a bracket of width w
    min(80, max(20, ceil(log2(w/xtol)))) times.  A plus-to-minus crossing
    is a maximum.  Returns (x, y, kind) tuples in trajectory order; constant
    stretches contribute nothing.
    """
    if traj.dim != 1:
        raise ValueError("find_extrema requires a scalar trajectory")
    if traj._fs is None or traj._dense is None:
        raise ValueError("trajectory lacks dense output")

    nodes = np.frombuffer(traj.xs, dtype=float)
    fs = np.frombuffer(traj._fs, dtype=float)
    a, b = nodes[:-1, None], nodes[1:, None]
    inner = a + (b - a) * np.array([0.25, 0.5, 0.75])
    # per step: the five probes a, a + w/4, a + w/2, a + 3w/4, b
    px = np.hstack([a, inner, b])
    pf = np.column_stack([fs[:-1], traj.slope(inner.ravel()).reshape(-1, 3), fs[1:]])
    fl, fr = pf[:, :-1].ravel(), pf[:, 1:].ravel()
    k = np.nonzero((fl != 0.0) & ~(fl * fr >= 0.0))[0]
    xl, xr, fl = px[:, :-1].ravel()[k], px[:, 1:].ravel()[k], fl[k]
    iters = [min(80, max(20, math.ceil(math.log2(max(abs(r - l) / xtol, 2.0)))))
             for l, r in zip(xl.tolist(), xr.tolist())]
    x_star = _bisect(traj.slope, xl, xr, fl, iters)

    out = []
    for x, y, f in zip(x_star.tolist(), traj.sample(x_star).tolist(), fl.tolist()):
        if out and abs(out[-1][0] - x) < 10 * xtol:
            continue
        # In +x order a maximum is a +(left) to -(right) crossing of y';
        # backward trajectories visit the right side first.
        rising = f > 0 if traj.direction > 0 else f < 0
        out.append((x, y, "max" if rising else "min"))
    return out
