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
from dataclasses import dataclass

import numpy as np

from .extrapolate import _ls_slope, richardson
from .ode import IntegratorConfig, Trajectory, _bisect, integrate
from .pseries import _horner

__all__ = [
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
    """Neither the energy trap nor a pole chain reached by x = -135; the
    tests expect it at a = 100 and -100."""


class InsufficientExtrema(ValueError):
    """Fewer than the required number of usable oscillation extrema."""


class ScanExhausted(RuntimeError):
    """Fate scan ended before the requested number of eigenvalues."""


_ODE = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=2_000_000)
# Matching at moderate height: the free quartic coefficient h enters the
# observed state like h*s^4 against the 6/s^2 divergence, so its fit error
# scales like Y^3; y ~ 150 (s ~ 0.2) extracts h ~300x better than y ~ 1000
# while the series still converges fast (ratio ~ s/spacing).
_Y_MATCH = 150.0         # |y| at which the Laurent fit starts
_Y_RESTART = 150.0       # |y| on the far side after a pole
_SERIES_TERMS = 24
_X_MIN = -135.0          # fate window
_BISECT_TOL = 1e-7       # final bracket width on a
# Scan step in a while seeking a_n: a fraction of the local spacing
# 0.6 C n^(-2/5) (the derivative of C n^(3/5)).  A step longer than
# a_(n+1) - a_n could span both flips unseen.  The smallest measured
# (a_(n+1) - a_n) / (0.6 C n^(-2/5)) over y0 in -3..5 is 0.40 (y0 = 5, n = 1:
# a_2 - a_1 = 1.03); 0.3 = (3/4) 0.40 keeps a quarter of it spare.
_SCAN_FRACTION = 0.3
_SECANT_WIDTH = 1e-2     # the flip finder halves wider brackets
# Secant overshoot, see _secant_probe.  Over y0 in -3..5 the secant estimate
# misses the flip by a median 5-12 % and a 90th percentile 11-24 % of its
# distance from the nearer end; a step a quarter past it covers nine in ten.
_PAST = 0.25
_APPROACH_WINDOW, _APPROACH_SPLIT, _APPROACH_SAMPLES = (-9.5, -2.5), 1e-9, 25


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
    """Verdict of classify_fate.

    `pole_count` counts the poles crossed before the verdict.  An
    oscillatory run stops at the first stored sample inside the energy trap
    below the departure band (see _trapped); `lock_onset` is its x, and the
    tests require every stored sample left of it to lie in the trap and no
    pole there.  A chain stops at the first pole whose segment turned right
    of the saddle, so its `pole_count` is the pole at which it was declared
    and its `lock_onset` is None.

    `departure` is the left end x* of the longest run of stored samples with
    |y - sqrt(-x)| < sqrt(-x)/2, x < 0, over the segments up to the verdict
    (None when no sample is that close): where the solution left the
    unstable branch.  Near an eigenvalue a_n the departing mode grows like
    exp((4/5) sqrt(2) (-x)^(5/4)), so (4/5) sqrt(2) (-x*)^(5/4) + ln|a - a_n|
    stays nearly constant: the tests require a spread below 1 at a_2 and a_3
    over |a - a_n| = 1e-2 ... 1e-6."""

    pole_count: int
    lock: str                      # "oscillatory" | "pole_chain"
    lock_onset: float | None       # x where the oscillatory run stopped
    departure: float | None        # x* where the solution left +sqrt(-x)


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
        # c, dx and dh vanish at 1..3, so a term with i or m - i there is
        # +-0.0; s, sx and sh start at +0.0 and never hold -0.0, so adding
        # one changes nothing.  Skipping them leaves the other terms in the
        # same order: the same sums, to the bit, for finite coefficients.
        for i in range(4, m - 3):
            s += c[i] * c[m - i]
            sx += dx[i] * c[m - i] + c[i] * dx[m - i]
            sh += dh[i] * c[m - i] + c[i] * dh[m - i]
        d = (m - 6) * (m + 1)
        c[m] = s / d
        dx[m] = sx / d
        dh[m] = sh / d
    return c, dx, dh


def pole_series_eval(x0: float, h: float, x: float) -> tuple[float, float]:
    """(y, y') of the Laurent solution with data (x0, h), at x != x0."""
    c, _, _ = _pole_series(x0, h, _SERIES_TERMS)
    s = x - x0
    p, dp = _horner(c, s)
    y = p / (s * s)
    v = dp / (s * s) - 2.0 * p / (s * s * s)
    return y, v


def laurent_match(x: float, y: float, v: float) -> PoleEvent:
    """Fit (x0, h) so the Laurent series matches the observed (y, v) at x.

    The initial guess comes from the leading order y = 6/s^2: x0 = x + 2y/v.
    Newton converges in a few steps this close to the pole; the relative
    residual of the converged fit is reported on the event.
    """
    if y < 0.5 * _Y_MATCH:
        raise MatchDiverged(f"matching requested at y={y:.3g}, below the match height")
    if v == 0.0:
        raise MatchDiverged("v = 0: turning point, not a pole approach")
    x0 = x + 2.0 * y / v
    h = 0.0
    for _ in range(60):
        c, dxc, dhc = _pole_series(x0, h, _SERIES_TERMS)
        s = x - x0
        p, dp = _horner(c, s)
        s2 = s * s
        ys = p / s2
        vs = dp / s2 - 2.0 * p / (s2 * s)
        f1 = ys - y
        f2 = vs - v
        if abs(f1) <= 1e-11 * abs(y) and abs(f2) <= 1e-11 * abs(v):
            break
        px, dpx = _horner(dxc, s)
        ph, dph = _horner(dhc, s)
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
    tail = abs(c[-1] * s ** (_SERIES_TERMS - 2))
    if tail > 1e-9 * abs(y):
        raise MatchDiverged(f"series truncation too coarse: tail={tail:.2e}")
    res = math.hypot(f1 / y, f2 / v if v != 0 else 0.0)
    return PoleEvent(x0, h, res)


# -- integration with pole continuation --------------------------------------


def _approaching_pole(y: float, v: float) -> bool:
    # near a double pole v^2 -> (2/3) y^3; near a turnaround v^2 << y^3
    return v * v >= y ** 3 / 3.0


def _pole_continuation(a: float, x_end: float, ode: IntegratorConfig,
                       y0: float, dense: bool, until=None):
    """Integrate from (0, y0) with slope a toward x_end, through poles.

    Yields (segment, pole) in integration order, where pole is the
    PoleEvent that ended the segment, or None when the segment ended at a
    turnaround (the match height is raised and integration resumes) or at
    x_end.  Poles are strictly ordered along the integration direction.

    ``until(x, state)``, called after each accepted step, is ORed into the
    pole test; a segment it ends is yielded with None and is the last one.
    """
    delta = math.sqrt(6.0 / _Y_RESTART)
    x, state = 0.0, (float(y0), float(a))
    threshold = _Y_MATCH
    last_x0 = math.inf
    while True:
        def hit(xx, yy, _t=threshold):
            return yy[0] >= _t and yy[1] < 0.0

        stop = hit
        if until is not None:
            def stop(xx, yy, _t=threshold):
                return (yy[0] >= _t and yy[1] < 0.0) or until(xx, yy)

        traj = integrate(painleve_rhs, x, state, x_end, ode,
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
        ev = laurent_match(traj.x_end, yv[0], yv[1])
        if ev.x0 >= last_x0:
            raise MatchDiverged(f"pole ordering violated at x0={ev.x0}")
        yield traj, ev
        last_x0 = ev.x0
        threshold = _Y_MATCH
        x = ev.x0 - delta
        if x <= x_end:
            return
        state = pole_series_eval(ev.x0, ev.h, x)


def integrate_with_poles(a: float, x_end: float, *, y0: float = 1.0,
                         dense: bool = True) -> tuple[list[Trajectory], list[PoleEvent]]:
    """Integrate from (0, y0) with slope a down to x_end < 0, through poles.

    Returns the trajectory segments between poles and the fitted pole
    events, strictly ordered along the integration direction.
    """
    if x_end >= 0:
        raise ValueError("x_end must be negative")
    steps = list(_pole_continuation(a, x_end, _ODE, y0, dense))
    return [traj for traj, _ in steps], [ev for _, ev in steps if ev is not None]


# -- fate classification ------------------------------------------------------


def _trapped(x: float, state) -> bool:
    """True at a sample in the trap T = {x < 0, y < sqrt(X), H < B} that
    lies below the departure band, y < sqrt(X)/2.

    With X = -x, H = v^2/2 - y^3/3 + X y and the saddle height
    B = (2/3) X^(3/2), a solution has dH/dx = -y and dB/dx = -sqrt(X), so
    H - B decreases toward x -> -infinity while y < sqrt(X).  On y = sqrt(X),
    H = v^2/2 + B >= B, and H < B forces y > -2 sqrt(X).  So T is invariant
    toward -infinity and a solution inside it meets no pole: the
    oscillatory fate.  Waiting below the band closes the run of samples
    near +sqrt(-x) that _departure reads: the tests require x* to equal
    that of the full window at a_1..a_12 +- 1e-3 and +- 1e-7.
    """
    X = -x                    # x < 0 at every accepted sample
    root = math.sqrt(X)
    y, v = state
    return y < 0.5 * root and 0.5 * v * v - y ** 3 / 3.0 + X * y < 2.0 / 3.0 * X * root


_CHAIN_MARGIN = -0.05     # energy margin below which a pole segment declares a chain


def _past_saddle(traj: Trajectory) -> bool:
    """Energy rule on a segment that ended in a pole.

    With x frozen at X = -x, H = v^2/2 - y^3/3 + X y has a saddle at
    y = +sqrt(X) of height (2/3) X^(3/2) and the oscillation well at
    y = -sqrt(X).  At the segment's lowest stored sample (x, y, v), y >
    sqrt(X) and a margin m = (H - (2/3) X^(3/2)) / X^(3/2) below
    _CHAIN_MARGIN say the solution turned right of the saddle, so it
    cannot reach the well.  Solutions near an eigenvalue ride the saddle
    (m -> 0) and are left to the later poles.

    Unlike the trap, this rule has no proof yet: nothing shows that a
    solution past the margin -0.05 cannot come back to the well.  The tests
    check its verdicts against the 16-pole route below |a| = 30.
    """
    ys = np.frombuffer(traj._ys, dtype=float)
    i = int(np.argmin(ys[0::2]))
    X = -traj.xs[i]
    if X <= 0.0:
        return False
    y, v = traj.state(i)
    e = X ** 1.5
    margin = (0.5 * v * v - y ** 3 / 3.0 + X * y - 2.0 / 3.0 * e) / e
    return y > math.sqrt(X) and margin < _CHAIN_MARGIN


def _departure(segments) -> float | None:
    """Left end of the longest run of stored samples with |y - sqrt(-x)| <
    sqrt(-x)/2, x < 0, over the segments; None without one.  No run spans
    two segments: they meet at a pole or a turnaround, at |y| >= 150."""
    xs = np.concatenate([np.frombuffer(t.xs, dtype=float) for t in segments])
    y = np.concatenate([np.frombuffer(t._ys, dtype=float)[0::2] for t in segments])
    root = np.sqrt(-xs)
    near = np.abs(y - root) < 0.5 * root
    if not near.any():
        return None
    near = np.concatenate(([False], near, [False]))
    edge = np.flatnonzero(near[1:] != near[:-1])
    first, last = edge[0::2], edge[1::2] - 1
    return float(xs[last[np.argmax(xs[first] - xs[last])]])


def classify_fate(a: float, ode: IntegratorConfig = _ODE, *,
                  y0: float = 1.0) -> FateReport:
    """Fate of the solution with initial slope a: oscillatory or pole chain.

    The fate is oscillatory once the run enters the energy trap of
    _trapped, which no solution leaves toward -infinity and which holds no
    pole.  A chain is declared at the first pole whose segment turned right
    of the frozen-x saddle with energy margin below -0.05 (see
    _past_saddle).  A fate with neither by x = -135 raises Undecided.

    Integration stops at whichever comes first: the first accepted sample
    in the trap below the departure band, or the pole that declares the
    chain, whose index is `pole_count`.  The tests require that verdict and
    pole_count equal those of the 4-extrema lock over the full window (a
    test-local reference route), that every stored sample left of
    lock_onset lies in the trap and no pole does, and that the eigenvalue
    scan finds a_1..a_4 to the bit with the 16-pole rule in place of the
    energy rule.  `departure` is read from the samples already stored, with
    no extra integration.
    """
    poles = 0
    segments = []
    for traj, ev in _pole_continuation(a, _X_MIN, ode, y0, dense=False, until=_trapped):
        segments.append(traj)
        if ev is not None:
            poles += 1
            if _past_saddle(traj):
                return FateReport(poles, "pole_chain", None, _departure(segments))
    if not _trapped(traj.x_end, traj.y_end):
        raise Undecided(f"fate of a={a} undecided by x={_X_MIN:.1f}")
    return FateReport(poles, "oscillatory", traj.x_end, _departure(segments))


def _halvings(width: float) -> int:
    """Halvings that take a bracket of this width to width <= _BISECT_TOL."""
    return max(0, math.ceil(math.log2(width / _BISECT_TOL)))


def _secant_probe(lo, f_lo, back_lo, hi, f_hi, back_hi):
    """Next probe strictly inside (lo, hi), or None.

    The secant estimate t of the flip comes from the nearer end (smaller
    |score|) and the previous end on its side, or, when that lands outside,
    from the two ends.  The probe is t stepped _PAST of its distance from
    the nearer end further on, so that it lands across the flip and the
    bracket closes from both sides.
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
    a = near + toward * max((1.0 + _PAST) * abs(t - near), 0.5 * _BISECT_TOL)
    return a if lo < a < hi else None


def _find_flip(probe, lo: float, hi: float, at_lo, at_hi) -> float:
    """Midpoint of a bracket of width <= _BISECT_TOL inside [lo, hi] whose
    ends have opposite verdicts.

    ``probe(a)`` returns (verdict, score), and at_lo and at_hi are its
    values at lo and hi.  The score has the verdict's sign and should be
    near-linear in a on each side of the flip.  Brackets wider than
    _SECANT_WIDTH are halved, narrower ones take _secant_probe steps.  A
    halving replaces any step after which halving could no longer finish
    within _halvings(hi - lo) + 2 probes; so no score costs more probes
    than that.
    """
    (v_lo, f_lo), (_, f_hi) = at_lo, at_hi
    back_lo = back_hi = None          # the previous end on each side
    budget = _halvings(hi - lo) + 2
    spent = 0
    while hi - lo > _BISECT_TOL:
        a = 0.5 * (lo + hi)
        if hi - lo <= _SECANT_WIDTH:
            s = _secant_probe(lo, f_lo, back_lo, hi, f_hi, back_hi)
            if s is not None and spent + 1 + _halvings(max(s - lo, hi - s)) <= budget:
                a = s
        v, f = probe(a)
        spent += 1
        if v == v_lo:
            back_lo, lo, f_lo = (lo, f_lo), a, f
        else:
            back_hi, hi, f_hi = (hi, f_hi), a, f
    return 0.5 * (lo + hi)


def painleve_eigenvalues(count: int, *, y0: float = 1.0) -> list[float]:
    """First `count` positive initial slopes at which the fate flips.

    Scans upward from a = 0; while seeking a_n the step is 0.3 of the
    growth law's local spacing 0.6 C n^(-2/5) (see _SCAN_FRACTION).  Each
    flip is closed by _find_flip to a bracket of width 1e-7, whose midpoint
    is returned, on the departure score exp(-(4/5) sqrt(2) (-x*)^(5/4)) of
    classify_fate, signed + for a lock and - for a chain.  The tests require
    each value inside the final bracket of a 0.05-step scan with halving,
    widened by 1e-7, and at most 2 fates more per flip than halving from
    the same bracket.  Past C (count + 1.5)^(3/5) + 2, the y0 = 1 law,
    the scan ends in ScanExhausted; that cap was checked for y0 in -3..5.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > 20:
        raise ValueError("count > 20 is beyond the intended scale")
    cap = REPORTED_GROWTH_CONSTANT * (count + 1.5) ** GROWTH_EXPONENT + 2.0

    def probe(a: float):
        # the departure score, +-1 without a departure
        rep = classify_fate(a, y0=y0)
        score = 1.0 if rep.departure is None else \
            math.exp(-0.8 * math.sqrt(2.0) * (-rep.departure) ** 1.25)
        return rep.lock, score if rep.lock == "oscillatory" else -score

    eigs: list[float] = []
    a_prev, at_prev = 0.0, probe(0.0)
    while len(eigs) < count:
        n = len(eigs) + 1
        a = a_prev + (_SCAN_FRACTION * GROWTH_EXPONENT * REPORTED_GROWTH_CONSTANT
                      * n ** (GROWTH_EXPONENT - 1.0))
        if a > cap:
            raise ScanExhausted(
                f"only {len(eigs)} fate flips below a={cap:.2f} at y0={y0}; the scan cap "
                f"C (count + 1.5)^(3/5) + 2 follows the y0 = 1 law")
        at = probe(a)
        if at[0] != at_prev[0]:
            eigs.append(_find_flip(probe, a_prev, a, at_prev, at))
        a_prev, at_prev = a, at
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
                             fit_window: tuple[float, float] = (-70.0, -15.0)) -> EnvelopeFit:
    """Fit the decaying oscillation about -sqrt(-x) on a dense trajectory.

    The deviation behaves like c (-x)^(-1/8) cos((4/5) sqrt(2) (-x)^(5/4) + d):
    the amplitude exponent comes from log|r| vs log(-x) at the extrema and
    the phase coefficient from regressing k*pi on (-x_k)^(5/4) over the
    (consecutive) extrema, of which there must be at least 8.
    """
    if traj.dim != 2:
        raise ValueError("expected a (y, y') trajectory")
    x_lo, x_hi = fit_window
    ext = _dense_extrema(traj, x_hi, max(x_lo, traj.x_end))
    if len(ext) < 8:
        raise InsufficientExtrema(f"{len(ext)} extrema in {fit_window}")
    amp = _ls_slope([math.log(-x) for x, _ in ext],
                    [math.log(abs(r)) for _, r in ext])
    # extrema run toward -infinity: phase grows as x decreases
    slope = _ls_slope([(-x) ** 1.25 for x, _ in ext],
                      [k * math.pi for k in range(len(ext))])
    return EnvelopeFit(amp, abs(slope), len(ext))


def approach_decay_slope(a: float) -> float:
    """Exponential rate at which an eigencurve meets +sqrt(-x), as a slope
    in the variable (-x)^(5/4).

    It checks the rate (4/5) sqrt(2) that the departure score of
    painleve_eigenvalues assumes: the tests require -(4/5) sqrt(2) to 1 %
    at a_1.  Nothing else in the lab calls it.

    Measured from the splitting of the solutions from y(0) = 1 with slopes
    a -+ _APPROACH_SPLIT = 1e-9, bracketing the eigenvalue a, at
    _APPROACH_SAMPLES = 25 evenly spaced x in _APPROACH_WINDOW = [-9.5, -2.5]:
    the linearised transverse mode behaves like (-x)^(-1/8)
    exp(+-(4/5) sqrt(2) (-x)^(5/4)), so ln(|y_+ - y_-| (-x)^(1/8)) regressed
    on (-x)^(5/4) gives the instability rate; the decaying branch that an
    eigencurve rides carries the same coefficient with the opposite sign,
    which is what is returned (~ -(4/5) sqrt(2)).  Measuring |y - sqrt(-x)|
    directly would not work: the branch's own power corrections (-1/8)(-x)^-2
    swamp the exponential term beyond -x ~ 4.
    """
    x_lo, x_hi = _APPROACH_WINDOW
    lo_segs, _ = integrate_with_poles(a - _APPROACH_SPLIT, x_lo - 0.5)
    hi_segs, _ = integrate_with_poles(a + _APPROACH_SPLIT, x_lo - 0.5)
    t_lo, t_hi = lo_segs[0], hi_segs[0]
    if (t_lo.x_end > x_lo - 0.4) or (t_hi.x_end > x_lo - 0.4):
        raise InsufficientExtrema("bracketing trajectories left the window early")
    grid = [x_hi + (x_lo - x_hi) * i / (_APPROACH_SAMPLES - 1) for i in range(_APPROACH_SAMPLES)]
    gaps = np.abs(t_hi.sample(grid)[:, 0] - t_lo.sample(grid)[:, 0]).tolist()
    xs, ys = [], []
    for x, d in zip(grid, gaps):
        if d <= 0:
            continue
        xs.append((-x) ** 1.25)
        ys.append(math.log(d) + 0.125 * math.log(-x))
    return -_ls_slope(xs, ys)


def estimate_C(eigs) -> float:
    """Extrapolated limit of a_n / n^(3/5) over the eigenvalues from a_4 on."""
    if len(eigs) < 8:
        raise ValueError("need at least 8 eigenvalues")
    idx = list(range(4, len(eigs) + 1))
    seq = [eigs[n - 1] / n ** GROWTH_EXPONENT for n in idx]
    return richardson(seq, idx, stages=2).limit
