"""First Painleve transcendent y'' = y^2 + x integrated toward -infinity.

Solutions either oscillate about and decay to -sqrt(-x) (stable branch) or
track +sqrt(-x) (unstable branch).  Tracking solutions form a discrete
family: for y(0) fixed, only special initial slopes a_n stay on the branch,
and nearby slopes veer off, either down into the oscillatory basin or up
through a chain of movable double poles.  Those slopes are located here as
discontinuities of the oscillatory/pole-chain fate map.

Double poles are passed in the regular chart y = 6/u^2, W = E - 6/u with
E = y'^2/2 - y^3/3 - x y (see _chart_rhs): a run enters it at y ~ 17.43
(_Y_FLOOR) on the pole approach, crosses the pole at u = 0 and takes up
(y, y') again on the far side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extrapolate import _ls_slope, richardson
from .ode import IntegratorConfig, Trajectory, _bisect, _find_flip, _quartic_value, integrate

__all__ = [
    "PoleEvent",
    "FateReport",
    "EnvelopeFit",
    "MatchDiverged",
    "Undecided",
    "InsufficientExtrema",
    "ScanExhausted",
    "painleve_rhs",
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
    """A pole passed in the chart lay at or right of the pole before it.
    Its chart runs leave past each pole, so only a wrong x0 gives it; no run
    of the tests raises it."""


class Undecided(RuntimeError):
    """Neither the energy trap nor a pole chain reached by x = -135; the
    tests expect it at a = 100 and -100."""


class InsufficientExtrema(ValueError):
    """Fewer than the required number of usable oscillation extrema."""


class ScanExhausted(RuntimeError):
    """Fate scan ended before the requested number of eigenvalues."""


_ODE = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=2_000_000)
_X_MIN = -135.0          # fate window
# Height y at which a run enters the pole chart.  A run within sqrt(-x)/2 of
# +sqrt(-x) stays below 1.5 sqrt(-_X_MIN) ~ 17.43, so no such run spans two
# segments (_departure).
_Y_FLOOR = 1.5 * math.sqrt(-_X_MIN)
_BISECT_TOL = 1e-7       # final bracket width on a
# Scan step in a while seeking a_n: a fraction of the local spacing
# 0.6 C n^(-2/5) (the derivative of C n^(3/5)).  A step longer than
# a_(n+1) - a_n could span both flips unseen.  The smallest measured
# (a_(n+1) - a_n) / (0.6 C n^(-2/5)) over y0 in -3..5 is 0.40 (y0 = 5, n = 1:
# a_2 - a_1 = 1.03); 0.3 = (3/4) 0.40 keeps a quarter of it spare.
_SCAN_FRACTION = 0.3
_APPROACH_WINDOW, _APPROACH_SPLIT, _APPROACH_SAMPLES = (-9.5, -2.5), 1e-9, 25


def painleve_rhs(x: float, y: tuple[float, float]) -> tuple[float, float]:
    """First-order form of y'' = y^2 + x; state (y, y')."""
    return (y[1], y[0] * y[0] + x)


@dataclass(frozen=True)
class PoleEvent:
    x0: float          # pole location


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


# -- integration with pole continuation --------------------------------------


def _chart_rhs(x: float, state: tuple[float, float]) -> tuple[float, float]:
    """The pole chart: y = 6/u^2 and W = E - 6/u, E = v^2/2 - y^3/3 - x y.

    With g = W u^2 + 6u + 6x, u' = p = sqrt(1 + u^4 g/72) and W' =
    6(p - 1)/u^2 = u^2 g/(12(1 + p)), regular at the pole u = 0, where
    p = 1.  A trial stage with 1 + u^4 g/72 < 0 lies past a turnaround
    (p = 0), off the solution the chart holds, and returns NaN: the step's
    error estimate is then NaN, so the loop rejects the attempt and cuts
    the step by its least factor.  An accepted sample never gets there,
    since a run leaves the chart below p = 1/2.
    """
    u, w = state
    uu = u * u
    g = w * uu + 6.0 * u + 6.0 * x
    q = 1.0 + uu * uu * g / 72.0
    if not q >= 0.0:
        return math.nan, math.nan
    p = math.sqrt(q)
    return p, uu * g / (12.0 * (1.0 + p))


def _chart_exit(x: float, state: tuple[float, float]) -> bool:
    # past the pole at y = 6/u^2 <= _Y_FLOOR, or p < 1/2 on either side
    u = state[0]
    return u < 0.0 and u * u * _Y_FLOOR >= 6.0 or _chart_rhs(x, state)[0] < 0.5


def _pass_pole(x: float, y: float, v: float, x_end: float, ode: IntegratorConfig):
    """Run the chart from the (y, v) sample at x, with y > 0 and v < 0,
    toward x_end < x.

    Returns (x0, x, state): the pole x0, or None where the run turned
    (p < 1/2 with u > 0) or reached x_end before u = 0; and the (y, v)
    state at the exit x, y = 6/u^2 and v = -12 p/u^3, or None where the
    run reached x_end in the chart.  x0 comes from the sample of the step
    that crossed u = 0 nearer to it: dx/du = 1/p = 1 - u^4 g/(72 p (1 + p)),
    so x0 = x - u + u^5 g/(360 p (1 + p)) = x - u + u^3 W'/(30 p) with
    g/(p (1 + p)) held at that sample, off by about u^6/360; that sample has
    |u| <= 0.023 at every pole the tests cross.
    """
    u = math.sqrt(6.0 / y)
    run = integrate(_chart_rhs, x, (u, 0.5 * v * v - y ** 3 / 3.0 - x * y - 6.0 / u),
                    x_end, ode, dense=False, stop_when=_chart_exit)
    us = run._ys[0::2]
    i = next((i for i, u in enumerate(us) if u <= 0.0), None)
    x0 = None
    if i is not None:
        j = i if -us[i] < us[i - 1] else i - 1
        p, dw = _chart_rhs(run.xs[j], run.state(j))
        x0 = run.xs[j] - us[j] + us[j] ** 3 * dw / (30.0 * p)
    if run.x_end == x_end:
        return x0, x_end, None
    u = run.y_end[0]
    return x0, run.x_end, (6.0 / (u * u), -12.0 * _chart_rhs(run.x_end, run.y_end)[0] / u ** 3)


def _pole_continuation(a: float, x_end: float, ode: IntegratorConfig,
                       y0: float, dense: bool, until=None):
    """Integrate from (0, y0) with slope a toward x_end, through poles.

    Yields (segment, pole) in integration order: each (y, v) segment, with
    the PoleEvent that ended it, or None where no pole did (the last
    segment, which ended at x_end or at `until`, and a segment whose chart
    run turned).  Poles are strictly ordered along the integration
    direction; a crossing out of order raises MatchDiverged.

    A segment stops at its first accepted sample with y >= _Y_FLOOR, v < 0
    and the pole signature v^2 >= y^3/3, that is p >= 1/sqrt(2), and the
    chart of _pass_pole takes over.  It leaves the chart past the pole once
    y = 6/u^2 falls to _Y_FLOOR, or between the close poles of a chain
    once p < 1/2, and the next segment starts there.  A run with p < 1/2
    before u = 0 is a turnaround: it leaves the chart with no pole, and the
    gap between 1/2 and 1/sqrt(2) keeps it from entering again at once.  No
    run of the tests turns: entered at p >= 1/sqrt(2), p tends to 1 on the
    way to the pole.

    ``until(x, state)``, called after each accepted step, is ORed into the
    pole test; a segment it ends (at a step where both hold, too) is yielded
    with None and is the last one.
    """
    x, state = 0.0, (float(y0), float(a))
    last_x0 = math.inf

    def stop(xx, yy):
        y, v = yy
        return (y >= _Y_FLOOR and v < 0.0 and v * v >= y ** 3 / 3.0
                or until is not None and until(xx, yy))

    while True:
        traj = integrate(painleve_rhs, x, state, x_end, ode,
                         dense=dense, stop_when=stop)
        if traj.x_end == x_end or until is not None and until(traj.x_end, traj.y_end):
            yield traj, None
            return
        x0, x, state = _pass_pole(traj.x_end, *traj.y_end, x_end, ode)
        pole = None
        if x0 is not None:
            if x0 >= last_x0:
                raise MatchDiverged(f"pole ordering violated at x0={x0}")
            pole, last_x0 = PoleEvent(x0), x0
        yield traj, pole
        if state is None:
            return


def integrate_with_poles(a: float, x_end: float, *,
                         y0: float = 1.0) -> tuple[list[Trajectory], list[PoleEvent]]:
    """Integrate from (0, y0) with slope a down to x_end < 0, through poles.

    Returns the dense (y, y') trajectory segments between poles and the pole
    events, strictly ordered along the integration direction.
    """
    if x_end >= 0:
        raise ValueError("x_end must be negative")
    steps = list(_pole_continuation(a, x_end, _ODE, y0, dense=True))
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
    two segments: each segment but the last ends at a chart entry, at
    y >= _Y_FLOOR, and a sample in the run has y < 1.5 sqrt(-_X_MIN) =
    _Y_FLOOR."""
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
            eigs.append(_find_flip(probe, a_prev, a, at_prev, at, _BISECT_TOL))
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
    onto that point.  Each bracket is one step, whose quartic is built once
    and read as ``Trajectory.sample`` reads it; a midpoint on the step's end
    node takes that node's value, which ``sample`` reads from the next step.
    """
    def g(x):
        return traj.sample(x)[:, 1] - 1.0 / (2.0 * np.sqrt(-x))

    xs = np.frombuffer(traj.xs, dtype=float)
    xs = xs[(xs <= x_hi) & (xs >= x_lo)]
    gs = g(xs)
    flip = np.nonzero(gs[:-1] * gs[1:] < 0)[0]
    x0, x1, g1 = xs[flip], xs[flip + 1], gs[flip + 1]
    # h's only column, and the y' column of the rest
    _, h, y0, q1, q2, q3, q4 = (c[:, -1] for c in traj._steps(x0))

    def g_step(x):
        v = _quartic_value((x - x0) / h, h, y0, q1, q2, q3, q4)
        return np.where(x == x1, g1, v - 1.0 / (2.0 * np.sqrt(-x)))

    x_e = _bisect(g_step, x0, x1, gs[flip], 60)
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
