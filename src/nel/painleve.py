"""First Painleve transcendent y'' = y^2 + x integrated toward -infinity.

Solutions either oscillate about and decay to -sqrt(-x) (stable branch) or
track +sqrt(-x) (unstable branch).  Tracking solutions form a discrete
family: for y(0) fixed, only special initial slopes a_n stay on the branch,
and nearby slopes veer off, either down into the oscillatory basin or up
through a chain of movable double poles.  Those slopes are located here as
discontinuities of the oscillatory/pole-chain fate map.

Double poles are traversed by matching the local Laurent series

    y = 6/s^2 - (x0/10) s^2 - s^3/6 + h s^4 + ...   (s = x - x0)

to the diverging numerical solution, solving for (x0, h) by Newton, and
restarting on the far side from the same series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extrapolate import _ls_slope, richardson
from .ode import IntegratorConfig, Trajectory, _bisect, integrate

__all__ = [
    "PainleveConfig",
    "PoleEvent",
    "FateReport",
    "EnvelopeFit",
    "MatchDiverged",
    "Undecided",
    "InsufficientExtrema",
    "ScanExhausted",
    "painleve_rhs",
    "laurent_match",
    "pole_series_eval",
    "integrate_with_poles",
    "classify_fate",
    "painleve_eigenvalues",
    "fit_oscillation_envelope",
    "approach_decay_slope",
    "estimate_C",
    "GROWTH_EXPONENT",
    "REPORTED_GROWTH_CONSTANT",
]

GROWTH_EXPONENT = 0.6                     # a_n ~ C n^(3/5)
REPORTED_GROWTH_CONSTANT = 4.28373        # C; compare also (17/5) 2^(1/3)


class MatchDiverged(RuntimeError):
    """Laurent matching failed to converge; raise the match height and retry."""


class Undecided(RuntimeError):
    """Neither oscillatory lock nor pole chain established by the window end."""


class InsufficientExtrema(ValueError):
    """Fewer than the required number of usable oscillation extrema."""


class ScanExhausted(RuntimeError):
    """Fate scan ended before the requested number of eigenvalues."""


@dataclass(frozen=True)
class PainleveConfig:
    ode: IntegratorConfig = field(default_factory=lambda: IntegratorConfig(
        rel_tol=1e-10, abs_tol=1e-12, max_steps=2_000_000))
    # Matching at moderate height: the free quartic coefficient h enters the
    # observed state like h*s^4 against the 6/s^2 divergence, so its fit
    # error scales like Y^3; y ~ 150 (s ~ 0.2) extracts h ~300x better than
    # y ~ 1000 while the series still converges fast (ratio ~ s/spacing).
    y_match: float = 150.0        # |y| at which the Laurent fit starts
    y_restart: float = 150.0      # |y| on the far side after a pole
    series_terms: int = 24
    x_min: float = -60.0          # fate window
    chain_poles: int = 16         # this many poles => declared a chain
    lock_extrema: int = 4         # straddling extrema needed for a lock
    track_from: float = -2.0      # extrema counted left of this point
    scan_step: float = 0.05
    bisect_tol: float = 1e-7


def painleve_rhs(x: float, y: tuple[float, float]) -> tuple[float, float]:
    """First-order form of y'' = y^2 + x; state (y, y')."""
    return (y[1], y[0] * y[0] + x)


@dataclass(frozen=True)
class PoleEvent:
    x0: float          # pole location
    h: float           # free coefficient of (x - x0)^4
    residual: float    # relative match residual

    def __post_init__(self):
        if not self.residual <= 1e-8:
            raise MatchDiverged(f"match residual {self.residual:.2e} at x0={self.x0}")


@dataclass(frozen=True)
class FateReport:
    """Verdict of classify_fate.  For an oscillatory lock, `extrema` ends at
    the extremum that completed the lock run, where integration stopped; it
    is a prefix of the full-window list.  Otherwise it holds the extrema of
    the final segment (empty when the chain was declared by pole count)."""

    pole_count: int
    lock: str                      # "oscillatory" | "pole_chain" | "undecided"
    lock_onset: float | None       # x of the first extremum of the lock run
    extrema: tuple[tuple[float, float], ...]   # (x_e, y_e + sqrt(-x_e))


# -- Laurent series at a double pole ----------------------------------------


def _pole_series(x0: float, h: float, terms: int):
    """Coefficients c_j of y = sum c_j s^(j-2) and their (x0, h) derivatives.

    c_0 = 6 and the resonance sits at j = 6, where h enters freely; higher
    coefficients follow from c_m (m-6)(m+1) = sum_{i=1}^{m-1} c_i c_{m-i}.
    """
    c = [0.0] * (terms + 1)
    dx = [0.0] * (terms + 1)
    dh = [0.0] * (terms + 1)
    c[0] = 6.0
    c[4] = -x0 / 10.0
    dx[4] = -0.1
    c[5] = -1.0 / 6.0
    c[6] = h
    dh[6] = 1.0
    for m in range(7, terms + 1):
        s = sx = sh = 0.0
        for i in range(1, m):
            s += c[i] * c[m - i]
            sx += dx[i] * c[m - i] + c[i] * dx[m - i]
            sh += dh[i] * c[m - i] + c[i] * dh[m - i]
        d = (m - 6) * (m + 1)
        c[m] = s / d
        dx[m] = sx / d
        dh[m] = sh / d
    return c, dx, dh


def _poly_and_deriv(c, s):
    p = dp = 0.0
    for cj in reversed(c):
        dp = dp * s + p
        p = p * s + cj
    return p, dp


def pole_series_eval(x0: float, h: float, x: float, terms: int = 20) -> tuple[float, float]:
    """(y, y') of the Laurent solution with data (x0, h), at x != x0."""
    c, _, _ = _pole_series(x0, h, terms)
    s = x - x0
    p, dp = _poly_and_deriv(c, s)
    y = p / (s * s)
    v = dp / (s * s) - 2.0 * p / (s * s * s)
    return y, v


def laurent_match(x: float, y: float, v: float,
                  cfg: PainleveConfig | None = None) -> PoleEvent:
    """Fit (x0, h) so the Laurent series matches the observed (y, v) at x.

    The initial guess comes from the leading order y = 6/s^2: x0 = x + 2y/v.
    Newton converges in a few steps this close to the pole; the relative
    residual of the converged fit is reported on the event.
    """
    if cfg is None:
        cfg = PainleveConfig()
    if y < 0.5 * cfg.y_match:
        raise MatchDiverged(f"matching requested at y={y:.3g}, below the match height")
    if v == 0.0:
        raise MatchDiverged("v = 0: turning point, not a pole approach")
    terms = cfg.series_terms
    x0 = x + 2.0 * y / v
    h = 0.0
    for _ in range(60):
        c, dxc, dhc = _pole_series(x0, h, terms)
        s = x - x0
        p, dp = _poly_and_deriv(c, s)
        s2 = s * s
        ys = p / s2
        vs = dp / s2 - 2.0 * p / (s2 * s)
        f1 = ys - y
        f2 = vs - v
        if abs(f1) <= 1e-11 * abs(y) and abs(f2) <= 1e-11 * abs(v):
            break
        px, dpx = _poly_and_deriv(dxc, s)
        ph, dph = _poly_and_deriv(dhc, s)
        # total d/dx0 at fixed x: parameter part minus d/ds
        j11 = px / s2 - vs
        j12 = ph / s2
        j21 = (dpx / s2 - 2.0 * px / (s2 * s)) - (ys * ys + x0 + s)
        j22 = dph / s2 - 2.0 * ph / (s2 * s)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise MatchDiverged("singular Jacobian in pole matching")
        d0 = (f1 * j22 - f2 * j12) / det
        d1 = (f2 * j11 - f1 * j21) / det
        # keep the step from jumping past the pole
        cap = 0.5 * abs(s)
        if abs(d0) > cap:
            d1 *= cap / abs(d0)
            d0 = math.copysign(cap, d0)
        x0 -= d0
        h -= d1
    else:
        raise MatchDiverged(f"Newton did not converge near x={x}")
    # truncation sanity: the last kept term must be negligible
    tail = abs(c[terms] * s ** (terms - 2))
    if tail > 1e-9 * abs(y):
        raise MatchDiverged(f"series truncation too coarse: tail={tail:.2e}")
    res = math.hypot(f1 / y, f2 / v if v != 0 else 0.0)
    return PoleEvent(x0, h, res)


# -- integration with pole continuation --------------------------------------


def _approaching_pole(y: float, v: float) -> bool:
    # near a double pole v^2 -> (2/3) y^3; near a turnaround v^2 << y^3
    return v * v >= y ** 3 / 3.0


def _pole_continuation(a: float, x_end: float, cfg: PainleveConfig,
                       y0: float, dense: bool, watch=None):
    """Integrate from (0, y0) with slope a toward x_end, through poles.

    Yields (segment, pole) in integration order, where pole is the
    PoleEvent that ended the segment, or None when the segment ended at a
    turnaround (the match height is raised and integration resumes) or at
    x_end.  Poles are strictly ordered along the integration direction.

    ``watch(x, state)``, called at the start of each segment, returns a
    per-step predicate that is ORed into the pole test; a segment it ends
    is yielded with None and is the last one.
    """
    delta = math.sqrt(6.0 / cfg.y_restart)
    x, state = 0.0, (float(y0), float(a))
    threshold = cfg.y_match
    last_x0 = math.inf
    while True:
        def hit(xx, yy, _t=threshold):
            return yy[0] >= _t and yy[1] < 0.0

        stop = hit
        if watch is not None:
            def stop(xx, yy, _t=threshold, _w=watch(x, state)):
                return (yy[0] >= _t and yy[1] < 0.0) or _w(xx, yy)

        traj = integrate(painleve_rhs, x, state, x_end, cfg.ode,
                         dense=dense, stop_when=stop)
        if not traj.stopped or not hit(traj.x_end, traj.y_end):
            yield traj, None
            return
        yv = traj.y_end
        if not _approaching_pole(yv[0], yv[1]):
            # turnaround near the match height: raise the bar and continue
            if threshold > 1e7:
                raise MatchDiverged("turnaround above 1e7 without pole signature")
            yield traj, None
            threshold *= 4.0
            x, state = traj.x_end, yv
            continue
        ev = laurent_match(traj.x_end, yv[0], yv[1], cfg)
        if ev.x0 >= last_x0:
            raise MatchDiverged(f"pole ordering violated at x0={ev.x0}")
        yield traj, ev
        last_x0 = ev.x0
        threshold = cfg.y_match
        x = ev.x0 - delta
        if x <= x_end:
            return
        state = pole_series_eval(ev.x0, ev.h, x, cfg.series_terms)


def integrate_with_poles(a: float, x_end: float,
                         cfg: PainleveConfig | None = None, *,
                         y0: float = 1.0,
                         dense: bool = True) -> tuple[list[Trajectory], list[PoleEvent]]:
    """Integrate from (0, y0) with slope a down to x_end < 0, through poles.

    Returns the trajectory segments between poles and the fitted pole
    events, strictly ordered along the integration direction.
    """
    if cfg is None:
        cfg = PainleveConfig()
    if x_end >= 0:
        raise ValueError("x_end must be negative")
    steps = list(_pole_continuation(a, x_end, cfg, y0, dense))
    return [traj for traj, _ in steps], [ev for _, ev in steps if ev is not None]


# -- fate classification ------------------------------------------------------


def _vertex(x3, r3) -> tuple[float, float]:
    """Vertex of the quadratic through three samples (x3, r3), in Newton form."""
    d21 = (r3[1] - r3[0]) / (x3[1] - x3[0])
    d32 = (r3[2] - r3[1]) / (x3[2] - x3[1])
    curv = (d32 - d21) / (x3[2] - x3[0])
    if curv == 0.0:
        return float(x3[1]), float(r3[1])
    x_e = 0.5 * (x3[0] + x3[1]) - 0.5 * d21 / curv
    r_e = r3[0] + d21 * (x_e - x3[0]) + curv * (x_e - x3[0]) * (x_e - x3[1])
    return float(x_e), float(r_e)


def _segment_extrema(traj: Trajectory, track_from: float):
    """Parabola-refined extrema of r = y + sqrt(-x) from the raw samples.

    Each sign change of r' between samples i and i+1 is refined on samples
    max(i-1, 0) .. +2.  This is the full-window reference for _LockWatch.
    """
    xs = np.frombuffer(traj.xs, dtype=float)
    ys = np.frombuffer(traj._ys, dtype=float)
    y = ys[0::2]
    v = ys[1::2]
    mask = xs <= track_from
    if mask.sum() < 3:
        return []
    xs, y, v = xs[mask], y[mask], v[mask]
    root = np.sqrt(-xs)
    g = v - 1.0 / (2.0 * root)        # derivative of r = y + sqrt(-x)
    r = y + root
    sign_flip = np.nonzero(g[:-1] * g[1:] < 0)[0]
    out = []
    for i in sign_flip:
        lo = max(i - 1, 0)
        if lo + 2 >= len(xs):
            continue
        out.append(_vertex(xs[lo:lo + 3], r[lo:lo + 3]))
    return out


def _lock_run(extrema, needed: int):
    """First run of `needed` extrema alternating around 0 with a shrinking
    envelope.

    The oscillation about -sqrt(-x) is skewed, so the envelope test compares
    each extremum with the previous one on the same side (two back), not
    with its immediate (opposite-side) neighbour.
    """
    run_start = 0
    run_len = 1 if extrema else 0
    for i in range(1, len(extrema)):
        alternates = extrema[i - 1][1] * extrema[i][1] < 0
        shrinking = (i - run_start < 2
                     or abs(extrema[i][1]) < abs(extrema[i - 2][1]))
        if alternates and shrinking:
            run_len += 1
        else:
            run_start, run_len = i, 1
        if run_len >= needed:
            return extrema[run_start][0]
    return None


class _LockWatch:
    """_segment_extrema + _lock_run, one accepted step at a time.

    Called at a segment start with (x, state), it returns the per-step
    stop predicate for _pole_continuation: a sign test of r' and a
    three-sample ring per step; refinement (on _segment_extrema's samples)
    and _lock_run only at a sign change.  It turns true at the step that
    completes the first lock run and leaves `onset` and `extrema` here.
    """

    __slots__ = ("cfg", "onset", "extrema")

    def __init__(self, cfg: PainleveConfig):
        self.cfg = cfg
        self.onset: float | None = None
        self.extrema: list = []

    def __call__(self, x: float, state):
        track_from, needed = self.cfg.track_from, self.cfg.lock_extrema
        extrema: list = []
        x1 = y1 = x2 = y2 = None      # the two tracked samples before this one
        g2 = 0.0                      # r' at x2; 0 before the first sample
        pending = False               # flip between the first two samples

        def refine(xx, yy) -> bool:
            extrema.append(_vertex(xx, [yi + math.sqrt(-xi) for xi, yi in zip(xx, yy)]))
            onset = _lock_run(extrema, needed)
            if onset is None:
                return False
            self.onset, self.extrema = onset, extrema
            return True

        def step(x, y, _sqrt=math.sqrt):
            nonlocal x1, y1, x2, y2, g2, pending
            if x > track_from:
                return False
            g = y[1] - 1.0 / (2.0 * _sqrt(-x))
            if pending:
                pending = False
                if refine((x1, x2, x), (y1, y2, y[0])):
                    return True
            if g * g2 < 0.0:
                if x1 is None:
                    pending = True
                elif refine((x1, x2, x), (y1, y2, y[0])):
                    return True
            x1, y1, x2, y2, g2 = x2, y2, x, y[0], g
            return False

        step(x, state)
        return step


def _classify_once(a: float, cfg: PainleveConfig, y0: float, x_min: float) -> FateReport:
    poles: list[PoleEvent] = []
    last_extrema: list = []
    watch = _LockWatch(cfg)
    for traj, ev in _pole_continuation(a, x_min, cfg, y0, dense=False, watch=watch):
        if ev is not None:
            poles.append(ev)
            if len(poles) >= cfg.chain_poles:
                return FateReport(len(poles), "pole_chain", None, ())
        elif not traj.stopped:
            last_extrema = _segment_extrema(traj, cfg.track_from)

    if watch.onset is not None:
        return FateReport(len(poles), "oscillatory", watch.onset, tuple(watch.extrema))
    if poles and poles[-1].x0 <= x_min + 10.0:
        return FateReport(len(poles), "pole_chain", None, tuple(last_extrema))
    return FateReport(len(poles), "undecided", None, tuple(last_extrema))


def classify_fate(a: float, cfg: PainleveConfig | None = None, *,
                  y0: float = 1.0) -> FateReport:
    """Fate of the solution with initial slope a: oscillatory lock or pole chain.

    An oscillatory lock needs cfg.lock_extrema consecutive extrema that
    straddle -sqrt(-x) with shrinking deviation; a chain is declared after
    cfg.chain_poles poles, or when poles persist into the last 10 units of
    the window.  The window is widened twice before giving up (Undecided).

    Integration stops at whichever is established first: the lock (found
    step by step, so `extrema` ends there) or the chain_poles-th pole.
    Verdict, pole_count and lock_onset equal those of the full window.
    """
    if cfg is None:
        cfg = PainleveConfig()
    x_min = cfg.x_min
    for _ in range(3):
        report = _classify_once(a, cfg, y0, x_min)
        if report.lock != "undecided":
            return report
        x_min *= 1.5
    raise Undecided(f"fate of a={a} undecided by x={x_min:.1f}")


def painleve_eigenvalues(count: int, cfg: PainleveConfig | None = None, *,
                         y0: float = 1.0) -> list[float]:
    """First `count` positive initial slopes at which the fate flips.

    Scans upward from a = 0 in cfg.scan_step increments and bisects each
    oscillatory/pole-chain flip down to cfg.bisect_tol.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > 20:
        raise ValueError("count > 20 is beyond the intended scale")
    if cfg is None:
        cfg = PainleveConfig()
    cap = REPORTED_GROWTH_CONSTANT * (count + 1.5) ** GROWTH_EXPONENT + 2.0

    def lock_of(a: float) -> str:
        return classify_fate(a, cfg, y0=y0).lock

    eigs: list[float] = []
    a_prev = 0.0
    f_prev = lock_of(a_prev)
    a = cfg.scan_step
    while len(eigs) < count:
        if a > cap:
            raise ScanExhausted(f"only {len(eigs)} fate flips below a={cap:.2f}")
        f = lock_of(a)
        if f != f_prev:
            lo, hi = a_prev, a
            flo = f_prev
            while hi - lo > cfg.bisect_tol:
                mid = 0.5 * (lo + hi)
                if lock_of(mid) == flo:
                    lo = mid
                else:
                    hi = mid
            eigs.append(0.5 * (lo + hi))
        a_prev, f_prev = a, f
        a += cfg.scan_step
    return eigs


# -- oscillation asymptotics --------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    amplitude_exponent: float     # ~ -1/8
    phase_coefficient: float      # ~ (4/5) sqrt(2)
    n_extrema: int


def _dense_extrema(traj: Trajectory, x_hi: float, x_lo: float):
    """Bisection-refined extrema of r = y + sqrt(-x) on [x_lo, x_hi], x<0.

    All sign changes of r' between window nodes are bisected in lockstep
    (``ode._bisect``), 60 halvings; a bracket that hits r' = 0 collapses
    onto that point.
    """
    def g(x):
        return traj.sample(x)[:, 1] - 1.0 / (2.0 * np.sqrt(-x))

    xs = np.frombuffer(traj.xs, dtype=float)
    xs = xs[(xs <= x_hi) & (xs >= x_lo)]
    gs = g(xs)
    flip = np.nonzero(gs[:-1] * gs[1:] < 0)[0]
    x_e = _bisect(g, xs[flip], xs[flip + 1], gs[flip], 60)
    return list(zip(x_e.tolist(), (traj.sample(x_e)[:, 0] + np.sqrt(-x_e)).tolist()))


def fit_oscillation_envelope(traj: Trajectory, *,
                             fit_window: tuple[float, float] = (-70.0, -15.0),
                             min_extrema: int = 8) -> EnvelopeFit:
    """Fit the decaying oscillation about -sqrt(-x) on a dense trajectory.

    The deviation behaves like c (-x)^(-1/8) cos((4/5) sqrt(2) (-x)^(5/4) + d):
    the amplitude exponent comes from log|r| vs log(-x) at the extrema and
    the phase coefficient from regressing k*pi on (-x_k)^(5/4) over the
    (consecutive) extrema.
    """
    if traj.dim != 2:
        raise ValueError("expected a (y, y') trajectory")
    x_lo, x_hi = fit_window
    ext = _dense_extrema(traj, x_hi, max(x_lo, traj.x_end))
    if len(ext) < min_extrema:
        raise InsufficientExtrema(f"{len(ext)} extrema in {fit_window}")
    amp = _ls_slope([math.log(-x) for x, _ in ext],
                    [math.log(abs(r)) for _, r in ext])
    # extrema run toward -infinity: phase grows as x decreases
    slope = _ls_slope([(-x) ** 1.25 for x, _ in ext],
                      [k * math.pi for k in range(len(ext))])
    return EnvelopeFit(amp, abs(slope), len(ext))


def approach_decay_slope(a: float, cfg: PainleveConfig | None = None, *,
                         y0: float = 1.0,
                         window: tuple[float, float] = (-9.5, -2.5),
                         split: float = 1e-9,
                         n_samples: int = 25) -> float:
    """Exponential rate at which an eigencurve meets +sqrt(-x), as a slope
    in the variable (-x)^(5/4).

    Measured from the splitting of two solutions bracketing the eigenvalue:
    the linearised transverse mode behaves like (-x)^(-1/8)
    exp(+-(4/5) sqrt(2) (-x)^(5/4)), so ln(|y_+ - y_-| (-x)^(1/8)) regressed
    on (-x)^(5/4) gives the instability rate; the decaying branch that an
    eigencurve rides carries the same coefficient with the opposite sign,
    which is what is returned (~ -(4/5) sqrt(2)).  Measuring |y - sqrt(-x)|
    directly would not work: the branch's own power corrections (-1/8)(-x)^-2
    swamp the exponential term beyond -x ~ 4.
    """
    if cfg is None:
        cfg = PainleveConfig()
    x_lo, x_hi = window
    lo_segs, _ = integrate_with_poles(a - split, x_lo - 0.5, cfg, y0=y0)
    hi_segs, _ = integrate_with_poles(a + split, x_lo - 0.5, cfg, y0=y0)
    t_lo, t_hi = lo_segs[0], hi_segs[0]
    if (t_lo.x_end > x_lo - 0.4) or (t_hi.x_end > x_lo - 0.4):
        raise InsufficientExtrema("bracketing trajectories left the window early")
    grid = [x_hi + (x_lo - x_hi) * i / (n_samples - 1) for i in range(n_samples)]
    gaps = np.abs(t_hi.sample(grid)[:, 0] - t_lo.sample(grid)[:, 0]).tolist()
    xs, ys = [], []
    for x, d in zip(grid, gaps):
        if d <= 0:
            continue
        xs.append((-x) ** 1.25)
        ys.append(math.log(d) + 0.125 * math.log(-x))
    return -_ls_slope(xs, ys)


def estimate_C(eigs, *, start: int = 4) -> float:
    """Extrapolated limit of a_n / n^(3/5) over the computed eigenvalues."""
    if len(eigs) < 8:
        raise ValueError("need at least 8 eigenvalues")
    idx = list(range(start, len(eigs) + 1))
    seq = [eigs[n - 1] / n ** GROWTH_EXPONENT for n in idx]
    return richardson(seq, idx, stages=2).limit
