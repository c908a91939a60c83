import math

import numpy as np
import pytest

from nel.ode import IntegratorConfig
from nel.painleve import (_ODE, _X_MIN, _Y_MATCH, _Y_RESTART, InsufficientExtrema,
                          MatchDiverged, PoleEvent, Undecided, approach_decay_slope,
                          classify_fate, estimate_C, fit_oscillation_envelope,
                          integrate_with_poles, laurent_match, painleve_rhs,
                          pole_series_eval)

# Published eigenvalue list (initial slopes for y(0) = 1), 6-7 digits.
PAINLEVE_EIGS = [0.231955, 3.980669, 6.257998, 8.075911, 9.654843, 11.078201,
                 12.389217, 13.613878, 14.769304, 15.867511, 16.917331,
                 17.925488]
RATE = 0.8 * math.sqrt(2.0)


def test_rhs_values():
    assert painleve_rhs(0.0, (0.0, 3.0)) == (3.0, 0.0)
    assert painleve_rhs(-4.0, (2.0, 0.5)) == (0.5, 0.0)   # y^2 + x = 0
    v, acc = painleve_rhs(-100.0, (10.0, 0.0))
    assert acc == 0.0
    # the square-root branch is nearly a solution at large -x: its equation
    # residual (1/4)(-x)^(-3/2) is tiny against |x|
    assert 0.25 * 100.0 ** -1.5 / 100.0 < 1e-5


def test_laurent_series_satisfies_equation():
    # The truncated series fails the equation only beyond the kept orders:
    # the residual scales like s^(J-3)..s^(J-1) depending on which omitted
    # coefficient dominates (any transcription error would show up at order
    # one-to-three instead).
    from nel.painleve import _pole_series

    x0, h = -3.7, 1.9

    def residual(s, terms):
        c, _, _ = _pole_series(x0, h, terms)
        p = dp = ddp = 0.0
        for cj in reversed(c):
            ddp = ddp * s + 2 * dp
            dp = dp * s + p
            p = p * s + cj
        y = p / s ** 2
        ypp = ddp / s ** 2 - 4 * dp / s ** 3 + 6 * p / s ** 4
        return abs(ypp - y * y - (x0 + s))

    for terms in (8, 10, 12, 14):
        order = math.log2(residual(0.6, terms) / residual(0.3, terms))
        assert terms - 5 < order < terms + 1


def _full_range_series(x0, h, terms):
    # the recursion summed over every i in 1..m-1, zero terms included
    c, dx, dh = [0.0] * (terms + 1), [0.0] * (terms + 1), [0.0] * (terms + 1)
    c[0], c[4], dx[4], c[5], c[6], dh[6] = 6.0, -x0 / 10.0, -0.1, -1.0 / 6.0, h, 1.0
    for m in range(7, terms + 1):
        s = sx = sh = 0.0
        for i in range(1, m):
            s += c[i] * c[m - i]
            sx += dx[i] * c[m - i] + c[i] * dx[m - i]
            sh += dh[i] * c[m - i] + c[i] * dh[m - i]
        d = (m - 6) * (m + 1)
        c[m], dx[m], dh[m] = s / d, sx / d, sh / d
    return c, dx, dh


@pytest.mark.parametrize("x0, h", [(0.0, 0.0), (0.0, 2.5), (-3.7, 1.9), (-7.3, -4.2),
                                   (-41.06, 0.0), (12.5, -0.3), (-120.0, 37.0)])
@pytest.mark.parametrize("terms", [7, 12, 24])
def test_pole_series_skips_only_zero_terms(x0, h, terms):
    from nel.painleve import _pole_series

    got = _pole_series(x0, h, terms)
    ref = _full_range_series(x0, h, terms)
    for g, r in zip(got, ref):
        assert [v.hex() for v in g] == [v.hex() for v in r]
    if x0 == 0.0:
        assert math.copysign(1.0, got[0][4]) == -1.0      # c_4 = -0.0 is kept


def test_laurent_match_recovers_synthetic_pole():
    x0, h = -7.3, 4.2
    s = -math.sqrt(6.0 / _Y_MATCH) * 1.01
    y, v = pole_series_eval(x0, h, x0 + s)
    ev = laurent_match(x0 + s, y, v)
    assert abs(ev.x0 - x0) < 1e-6
    assert abs(ev.h - h) < 1e-6
    # the leading-order guess x + 2y/v already lands close
    assert abs((x0 + s + 2 * y / v) - x0) < 1e-2


def test_leading_order_guess_close_to_newton_at_great_height():
    # deep on the pole approach (y ~ 6e4) the one-term inversion
    # x0 = x + 2 y / v is already microns from the converged fit
    x0, h = -4.2, 2.7
    s = -math.sqrt(6.0 / 6e4)
    y, v = pole_series_eval(x0, h, x0 + s)
    guess = (x0 + s) + 2.0 * y / v
    ev = laurent_match(x0 + s, y, v)
    assert abs(guess - ev.x0) < 1e-6
    assert abs(ev.x0 - x0) < 1e-9


def test_laurent_match_guards():
    with pytest.raises(MatchDiverged):
        laurent_match(-5.0, 10.0, -100.0)      # far below match height
    with pytest.raises(MatchDiverged):
        laurent_match(-5.0, 500.0, 0.0)        # turning point
    with pytest.raises(MatchDiverged):
        PoleEvent(-1.0, 0.0, 1e-3)                  # residual bound enforced


def test_pole_round_trip():
    # from series data on one side, cross the pole numerically and compare
    # with the series on the other side
    x0, h = -7.3, 4.2
    from nel.ode import integrate

    s_far = 0.6
    y_r, v_r = pole_series_eval(x0, h, x0 + s_far)
    tr = integrate(painleve_rhs, x0 + s_far, (y_r, v_r), x0 - s_far, _ODE,
                   dense=False, stop_when=lambda x, y: y[0] >= _Y_MATCH and y[1] < 0)
    ev = laurent_match(tr.x_end, tr.y_end[0], tr.y_end[1])
    xr = ev.x0 - math.sqrt(6.0 / _Y_RESTART)
    st = pole_series_eval(ev.x0, ev.h, xr)
    tr2 = integrate(painleve_rhs, xr, st, x0 - s_far, _ODE, dense=False)
    y_ref, v_ref = pole_series_eval(x0, h, x0 - s_far)
    assert abs(tr2.y_end[0] - y_ref) < 1e-7
    assert abs(tr2.y_end[1] - v_ref) < 1e-6


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_pole_round_trip_tolerance_scaling(scale):
    x0, h = -5.1, 2.3
    ode = IntegratorConfig(rel_tol=1e-10 * scale, abs_tol=1e-12 * scale, max_steps=2_000_000)
    from nel.ode import integrate

    s_far = 0.5
    y_r, v_r = pole_series_eval(x0, h, x0 + s_far)
    tr = integrate(painleve_rhs, x0 + s_far, (y_r, v_r), x0 - s_far, ode,
                   dense=False, stop_when=lambda x, y: y[0] >= _Y_MATCH and y[1] < 0)
    ev = laurent_match(tr.x_end, tr.y_end[0], tr.y_end[1])
    xr = ev.x0 - math.sqrt(6.0 / _Y_RESTART)
    st = pole_series_eval(ev.x0, ev.h, xr)
    tr2 = integrate(painleve_rhs, xr, st, x0 - s_far, ode, dense=False)
    y_ref, _ = pole_series_eval(x0, h, x0 - s_far)
    assert abs(tr2.y_end[0] - y_ref) < 1e-7


def test_first_two_eigencurves_track_branch_with_no_pole():
    # First eigencurve comes down onto +sqrt(-x) from above, the second
    # rises to it from far below; neither passes a pole.  (Asymptotically
    # both settle slightly below sqrt(-x): the branch carries a power
    # correction -(1/8)(-x)^-2.)
    segs1, poles1 = integrate_with_poles(PAINLEVE_EIGS[0], -8.0)
    assert poles1 == []
    assert segs1[-1](-1.5)[0] - math.sqrt(1.5) > 0
    assert abs(segs1[-1](-5.0)[0] - math.sqrt(5.0)) < 0.1
    segs2, poles2 = integrate_with_poles(PAINLEVE_EIGS[1], -8.0)
    assert poles2 == []
    assert segs2[-1](-1.5)[0] - math.sqrt(1.5) < -1.0
    assert abs(segs2[-1](-5.0)[0] - math.sqrt(5.0)) < 0.1


def test_chain_solution_has_many_poles():
    _, poles = integrate_with_poles(5.0, -40.0)
    assert len(poles) >= 10
    xs = [p.x0 for p in poles]
    assert all(b < a for a, b in zip(xs, xs[1:]))   # strictly ordered


def test_fates_on_known_intervals():
    assert classify_fate(0.0).lock == "pole_chain"
    osc = classify_fate(1.0)
    assert osc.lock == "oscillatory" and osc.pole_count == 0
    mid = classify_fate(7.0)
    assert mid.lock == "oscillatory" and mid.pole_count == 1
    deep = classify_fate(10.0)
    assert deep.lock == "oscillatory" and deep.pole_count == 2
    assert classify_fate(5.0).lock == "pole_chain"


def test_fate_flips_at_first_eigenvalue():
    below = classify_fate(PAINLEVE_EIGS[0] - 1e-5)
    above = classify_fate(PAINLEVE_EIGS[0] + 1e-5)
    assert {below.lock, above.lock} == {"pole_chain", "oscillatory"}


@pytest.mark.parametrize("a", [7.0, 10.0])
def test_fate_and_integration_cross_the_same_poles(a):
    _, poles = integrate_with_poles(a, _X_MIN, dense=False)
    assert classify_fate(a).pole_count == len(poles)


def _turned_past_saddle(seg):
    """Energy rule, written out: at the segment's lowest sample (x, y, v),
    X = -x, the margin (v^2/2 - y^3/3 + X y - (2/3) X^(3/2)) / X^(3/2) is
    below -0.05 with y > sqrt(X)."""
    i = min(range(len(seg)), key=lambda j: seg.state(j)[0])
    x, (y, v) = seg.xs[i], seg.state(i)
    if x >= 0.0:
        return False
    big_x = -x
    e = big_x ** 1.5
    return y > math.sqrt(big_x) and (v * v / 2 - y ** 3 / 3 + big_x * y - 2 * e / 3) / e < -0.05


# -- the 4-extrema lock: the reference route of the energy trap ---------------

_LOCK_EXTREMA = 4        # straddling extrema needed for a lock
_TRACK_FROM = -2.0       # extrema counted left of this point


def _vertex(x3, r3):
    """Vertex of the quadratic through three samples (x3, r3), in Newton form."""
    d21 = (r3[1] - r3[0]) / (x3[1] - x3[0])
    d32 = (r3[2] - r3[1]) / (x3[2] - x3[1])
    curv = (d32 - d21) / (x3[2] - x3[0])
    if curv == 0.0:
        return float(x3[1]), float(r3[1])
    x_e = 0.5 * (x3[0] + x3[1]) - 0.5 * d21 / curv
    r_e = r3[0] + d21 * (x_e - x3[0]) + curv * (x_e - x3[0]) * (x_e - x3[1])
    return float(x_e), float(r_e)


def _segment_extrema(traj, track_from):
    """Parabola-refined extrema of r = y + sqrt(-x) from the raw samples
    left of track_from.  Each sign change of r' between samples i and i+1
    is refined on samples max(i-1, 0) .. +2."""
    xs = np.frombuffer(traj.xs, dtype=float)
    ys = np.frombuffer(traj._ys, dtype=float)
    y, v = ys[0::2], ys[1::2]
    mask = xs <= track_from
    if mask.sum() < 3:
        return []
    xs, y, v = xs[mask], y[mask], v[mask]
    root = np.sqrt(-xs)
    g = v - 1.0 / (2.0 * root)        # derivative of r = y + sqrt(-x)
    r = y + root
    out = []
    for i in np.nonzero(g[:-1] * g[1:] < 0)[0]:
        lo = max(i - 1, 0)
        if lo + 2 < len(xs):
            out.append(_vertex(xs[lo:lo + 3], r[lo:lo + 3]))
    return out


def _lock_run(extrema, needed):
    """x of the first extremum of the first run of `needed` extrema that
    alternate around 0 with a shrinking envelope, or None.  The oscillation
    about -sqrt(-x) is skewed, so each extremum is compared with the
    previous one on the same side (two back)."""
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


def _full_window_fate(a, y0, x_min=_X_MIN):
    """Fate by the full-window route: integrate every segment to x_min;
    a chain at the first pole whose segment meets the energy rule, else the
    4-extrema lock of the last segment.  Returns (lock, poles, onset)."""
    segs, poles = integrate_with_poles(a, x_min, y0=y0, dense=False)
    # a pole ends a stopped segment on the pole approach, v^2 >= y^3/3;
    # a turnaround ends one below it
    ends = [s for s in segs if s.stopped and s.y_end[1] ** 2 >= s.y_end[0] ** 3 / 3]
    assert len(ends) == len(poles)
    by_energy = [k for k, s in enumerate(ends, 1) if _turned_past_saddle(s)]
    if by_energy:
        return "pole_chain", by_energy[0], None
    extrema = [] if segs[-1].stopped else _segment_extrema(segs[-1], _TRACK_FROM)
    onset = _lock_run(extrema, _LOCK_EXTREMA)
    if onset is None:
        raise Undecided(a)
    return "oscillatory", len(poles), onset


def _sixteen_pole_fate(a, y0):
    """Fate by the 16-pole route, the reference of the energy rule: a chain
    at the 16th pole or when poles persist into the last 10 units of a
    window to x = -60, else the lock of the last segment.  Returns (lock,
    poles, onset)."""
    segs, poles = integrate_with_poles(a, -60.0, y0=y0, dense=False)
    if len(poles) >= 16:
        return "pole_chain", 16, None
    extrema = [] if segs[-1].stopped else _segment_extrema(segs[-1], _TRACK_FROM)
    onset = _lock_run(extrema, _LOCK_EXTREMA)
    if onset is not None:
        return "oscillatory", len(poles), onset
    if poles and poles[-1].x0 <= -50.0:
        return "pole_chain", len(poles), None
    raise Undecided(a)


# Beyond |a| = 30 the 16-pole route misjudges: its 16th pole, or a pole in
# its window's last 10 units, comes before the lock or the energy rule and
# calls every one of these a chain.  (lock, poles, onset to 0.01) at y0 = 1:
_BEYOND_16_POLES = {
    33.0: ("oscillatory", 15, -69.02),   # the window rule called it a chain
    36.0: ("oscillatory", 17, -77.92),
    40.0: ("pole_chain", 23, None),      # a chain, but by energy at pole 23, not 16
    45.0: ("oscillatory", 25, -103.77),
    50.0: ("oscillatory", 30, -121.24),
    -50.0: ("oscillatory", 30, -120.22),
    60.0: ("pole_chain", 44, None),
}


@pytest.mark.parametrize("a, y0", [
    *((-15.0 + k, 1.0) for k in range(35)),
    (0.3, 1.0),                         # r' flips between the first two tracked samples
    *((e + d, 1.0) for e in PAINLEVE_EIGS[:4] for d in (-1e-5, 1e-5)),
    *((a, y0) for y0 in (0.0, 2.0) for a in (-6.0, 1.0, 5.0, 9.5)),
    *((e + d, 1.0) for e in PAINLEVE_EIGS for d in (-1e-7, 1e-7)),
    *((a, 1.0) for a in _BEYOND_16_POLES),
])
def test_fate_stopped_at_lock_equals_full_window(a, y0):
    # classify_fate stops integrating in the energy trap or at the pole
    # that declares the chain; the verdict and pole count must be those of
    # the 4-extrema lock over the full window; below |a| = 30 the 16-pole
    # route must reach the same verdict, and for a lock the same count and
    # onset as the full window
    lock, poles, onset = _full_window_fate(a, y0)
    rep = classify_fate(a, y0=y0)
    assert (rep.lock, rep.pole_count) == (lock, poles)
    if abs(a) >= 30.0:
        assert (lock, poles, onset and round(onset, 2)) == _BEYOND_16_POLES[a]
        assert _sixteen_pole_fate(a, y0)[0] == "pole_chain"
        return
    old = _sixteen_pole_fate(a, y0)
    assert old[0] == lock
    if lock == "oscillatory":
        assert old[1:] == (poles, onset)


def _in_trap(x, y, v):
    """x < 0, y < sqrt(X) and H = v^2/2 - y^3/3 + X y below the saddle
    height (2/3) X^(3/2), X = -x."""
    big_x = -x
    return (x < 0.0 and y < math.sqrt(big_x)
            and v * v / 2 - y ** 3 / 3 + big_x * y < 2 * big_x ** 1.5 / 3)


@pytest.mark.parametrize("y0", [0.0, 1.0, 2.0])
def test_trap_holds_every_later_sample_and_no_pole(y0):
    # the proof on the numbers: over the full window, every stored sample
    # left of the stop lies in the trap, and no pole does
    trapped = 0
    for a in range(-15, 20):
        rep = classify_fate(float(a), y0=y0)
        if rep.lock != "oscillatory":
            continue
        trapped += 1
        segs, poles = integrate_with_poles(float(a), _X_MIN, y0=y0, dense=False)
        assert all(p.x0 > rep.lock_onset for p in poles), a
        later = [(x, seg.state(i)) for seg in segs for i, x in enumerate(seg.xs)
                 if x < rep.lock_onset]
        assert later and all(_in_trap(x, y, v) for x, (y, v) in later), a
    assert trapped >= 10


@pytest.mark.parametrize("e", PAINLEVE_EIGS)
def test_departure_near_a_flip_is_that_of_the_full_window(e):
    # the run stops below the departure band, so the run near +sqrt(-x)
    # that the departure score reads is closed: x* equals that of the full
    # window on both sides of every flip (a stop at entry to the trap
    # would cut the run short on the oscillatory side)
    from nel.painleve import _departure

    for d in (-1e-3, 1e-3, -1e-7, 1e-7):
        segs, _ = integrate_with_poles(e + d, _X_MIN, dense=False)
        assert classify_fate(e + d).departure == _departure(segs), d


@pytest.mark.parametrize("a, poles, lock_onset", [(55.0, 35, -136.03), (56.0, 36, -139.91),
                                                  (62.0, 43, -160.92), (-60.0, 41, -153.93)])
def test_trap_decides_where_the_lock_comes_after_the_window(a, poles, lock_onset):
    # the 4-extrema lock of these fates starts past x = -135, so it cannot
    # decide them; the trap does inside the window, and the lock on a
    # window to x = -220 agrees
    rep = classify_fate(a)
    assert (rep.lock, rep.pole_count) == ("oscillatory", poles)
    assert rep.lock_onset > _X_MIN
    lock, n, onset = _full_window_fate(a, 1.0, x_min=-220.0)
    assert (lock, n, round(onset, 2)) == ("oscillatory", poles, lock_onset)


@pytest.mark.parametrize("a", [100.0, -100.0])
def test_fate_with_neither_rule_by_the_window_end_is_undecided(a):
    with pytest.raises(Undecided, match=r"by x=-135\.0"):
        classify_fate(a)


def test_eigenvalues_unchanged_without_the_energy_rule(painleve_eigs12, monkeypatch):
    # the energy rule only ends chains sooner: with it replaced by a rule
    # that fires at each fate's 16th pole (the 16-pole route) the scan
    # bisects to the same bits (the fixture's scan finds a_1..a_4 exactly
    # as a count-4 scan does)
    import nel.painleve as pl

    eigs, _ = painleve_eigs12
    poles = [0]
    classify = pl.classify_fate

    def at_sixteenth_pole(traj):
        poles[0] += 1
        return poles[0] >= 16

    def counted_from_zero(*args, **kwargs):
        poles[0] = 0
        return classify(*args, **kwargs)

    monkeypatch.setattr(pl, "_past_saddle", at_sixteenth_pole)
    monkeypatch.setattr(pl, "classify_fate", counted_from_zero)
    assert [e.hex() for e in pl.painleve_eigenvalues(4)] == [e.hex() for e in eigs[:4]]


def test_pole_count_robust_to_tolerance():
    for a in (1.0, 7.0, 10.0):
        counts = set()
        for scale in (0.5, 2.0):
            ode = IntegratorConfig(rel_tol=1e-10 * scale, abs_tol=1e-12 * scale,
                                   max_steps=2_000_000)
            counts.add(classify_fate(a, ode).pole_count)
        assert len(counts) == 1


def test_eigenvalues_match_published_list(painleve_eigs12):
    eigs, _ = painleve_eigs12
    assert len(eigs) == 12
    for got, ref in zip(eigs, PAINLEVE_EIGS):
        assert abs(got - ref) < 1e-4


def test_eigencurves_three_and_four_cross_one_pole(painleve_eigs12):
    # the oscillatory side probes right next to a_3 and a_4 inherit the
    # eigencurves' pole count
    eigs, _ = painleve_eigs12
    assert classify_fate(eigs[2] + 1e-5).pole_count == 1
    assert classify_fate(eigs[3] - 1e-5).pole_count == 1


def test_interlacing_fate_change(painleve_eigs12):
    eigs, _ = painleve_eigs12
    for a in eigs[:6]:
        lo = classify_fate(a - 1e-5).lock
        hi = classify_fate(a + 1e-5).lock
        assert lo != hi


def test_negative_eigenvalues_exist():
    flips = 0
    prev = classify_fate(-15.0).lock
    a = -14.5
    while a <= 0.0 and flips < 3:
        cur = classify_fate(a).lock
        if cur != prev:
            flips += 1
        prev = cur
        a += 0.5
    assert flips >= 3


def test_envelope_fit():
    segs, _ = integrate_with_poles(1.0, -80.0, dense=True)
    fit = fit_oscillation_envelope(segs[-1], fit_window=(-80.0, -25.0))
    assert fit.amplitude_exponent == pytest.approx(-0.125, abs=0.02)
    assert fit.phase_coefficient == pytest.approx(RATE, rel=0.005)
    assert fit.n_extrema >= 8


def test_envelope_fit_needs_extrema():
    segs, _ = integrate_with_poles(1.0, -20.0, dense=True)
    with pytest.raises(InsufficientExtrema):
        fit_oscillation_envelope(segs[-1], fit_window=(-80.0, -60.0))


def test_approach_decay_slope(painleve_eigs12):
    eigs, _ = painleve_eigs12
    slope = approach_decay_slope(eigs[0])
    assert slope == pytest.approx(-RATE, rel=0.01)


def test_growth_constant_estimate(painleve_eigs12):
    eigs, _ = painleve_eigs12
    c = estimate_C(eigs)
    assert c == pytest.approx(4.28373, rel=0.02)
    # close to, but distinct from, (17/5) 2^(1/3); both are reported values
    assert abs(4.28373 - 3.4 * 2 ** (1 / 3)) < 3e-4


def test_estimate_c_needs_enough_values():
    with pytest.raises(ValueError):
        estimate_C([1.0] * 5)


def test_growth_constant_appears_universal_in_y0():
    # soft check: the growth constant of the eigenvalue sequence comes out
    # the same for other starting values (reported, tolerance deliberately
    # loose; eight eigenvalues per starting value)
    from nel.painleve import painleve_eigenvalues

    for y0 in (0.0, 2.0):
        eigs = painleve_eigenvalues(8, y0=y0)
        c = estimate_C(eigs)
        assert c == pytest.approx(4.28373, rel=0.01), f"y0={y0}"


# -- the flip finder on a synthetic ladder (no ODE) ---------------------------

# flips shaped like the growth law C (n - 0.9)^(3/5)
_LADDER = [4.28373 * (n - 0.9) ** 0.6 for n in range(1, 13)]


def _ladder_fate(flips, a, score):
    """(verdict, score) at a: the verdict is the parity of the flips below
    a; the score carries its sign and is the distance to the nearest flip
    ("linear"), that distance times 3 on the oscillatory side ("kinked", as
    the departure score has a different prefactor on either side), or 1
    ("sign", which tells the secant nothing)."""
    below = sum(1 for r in flips if r < a)
    verdict, sign = ("oscillatory", 1.0) if below % 2 else ("pole_chain", -1.0)
    if score == "sign":
        return verdict, sign
    if score == "kinked" and below % 2:
        sign = 3.0
    return verdict, sign * min((abs(a - r) for r in flips), default=1.0)


@pytest.mark.parametrize("score", ["linear", "kinked", "sign"])
@pytest.mark.parametrize("left, right", [(0.5, 0.5), (0.01, 0.7), (0.7, 3e-7),
                                         (4e-3, 5e-3), (1e-6, 2e-6)])
def test_flip_finder_on_a_synthetic_ladder(left, right, score):
    # every flip of the ladder, from brackets placed around it at either
    # side: found within 1e-7, at most 2 probes more than halving would take
    from nel.painleve import _BISECT_TOL, _find_flip, _halvings

    for r in _LADDER:
        calls = []

        def probe(a):
            calls.append(a)
            return _ladder_fate(_LADDER, a, score)

        lo, hi = r - left, r + right
        found = _find_flip(probe, lo, hi, probe(lo), probe(hi))
        assert abs(found - r) <= _BISECT_TOL
        assert len(calls) - 2 <= _halvings(hi - lo) + 2


def _ladder_classify(flips, score, calls):
    """A classify_fate stand-in whose departure gives _ladder_fate's score."""
    import nel.painleve as pl

    def classify(a, ode=None, *, y0=1.0):
        calls.append(a)
        if len(calls) > 10_000:
            raise RuntimeError("runaway scan")
        lock, value = _ladder_fate(flips, a, score)
        mag = abs(value)
        # exp(-(4/5) sqrt(2) (-x*)^(5/4)) = |score|; none at |score| >= 1
        departure = None if mag >= 1.0 or mag == 0.0 else \
            -(-math.log(mag) / (0.8 * math.sqrt(2.0))) ** 0.8
        return pl.FateReport(0, lock, None, departure)
    return classify


@pytest.mark.parametrize("score", ["linear", "kinked", "sign"])
def test_scan_on_a_synthetic_ladder(score, monkeypatch):
    # the whole scan with classify_fate stubbed: every flip within 1e-7,
    # each closed within halving from its scan bracket + 2
    import nel.painleve as pl

    calls, closing = [], []
    find_flip = pl._find_flip

    def counted(probe, lo, hi, at_lo, at_hi):
        n0 = len(calls)
        found = find_flip(probe, lo, hi, at_lo, at_hi)
        closing.append((len(calls) - n0, pl._halvings(hi - lo)))
        return found

    monkeypatch.setattr(pl, "classify_fate", _ladder_classify(_LADDER, score, calls))
    monkeypatch.setattr(pl, "_find_flip", counted)
    eigs = pl.painleve_eigenvalues(12)
    assert all(abs(e - r) <= pl._BISECT_TOL for e, r in zip(eigs, _LADDER))
    assert all(spent <= halvings + 2 for spent, halvings in closing)


def test_scan_that_never_flips_ends_in_scan_exhausted(monkeypatch):
    # no flip below the cap C (21.5)^(3/5) + 2 = 29.0, so every step is the
    # n = 1 step 0.3 * 0.6 C = 0.771: the scan stops after 1 + 37 fates
    import nel.painleve as pl

    calls = []
    monkeypatch.setattr(pl, "classify_fate", _ladder_classify([], "linear", calls))
    with pytest.raises(pl.ScanExhausted, match=r"only 0 fate flips below a=29\.0\d at y0=1\.0"):
        pl.painleve_eigenvalues(20)
    assert len(calls) == 38


# -- the growth-law scan against the 0.05-step halving route ------------------


def _halving_route(count, y0):
    """Final brackets of the route the growth-law scan replaced: step a by
    0.05 from 0 and halve each flip's bracket to width 1e-7 on the verdict
    alone."""
    def lock(a):
        return classify_fate(a, y0=y0).lock

    brackets = []
    a_prev, f_prev = 0.0, lock(0.0)
    a = 0.05
    while len(brackets) < count:
        f = lock(a)
        if f != f_prev:
            lo, hi = a_prev, a
            while hi - lo > 1e-7:
                mid = 0.5 * (lo + hi)
                if lock(mid) == f_prev:
                    lo = mid
                else:
                    hi = mid
            brackets.append((lo, hi))
        a_prev, f_prev = a, f
        a += 0.05
    return brackets


@pytest.fixture(scope="module")
def two_routes():
    """{(y0, count): (halving-route brackets, eigenvalues, closing)} where
    closing lists (fates, halvings from the same bracket) per flip."""
    import nel.painleve as pl

    out = {}
    for y0, count in ((-3.0, 4), (0.0, 4), (2.0, 4), (5.0, 4), (1.0, 12)):
        closing = []
        find_flip = pl._find_flip

        def counted(probe, lo, hi, at_lo, at_hi):
            spent = []

            def counted_probe(a):
                spent.append(a)
                return probe(a)

            found = find_flip(counted_probe, lo, hi, at_lo, at_hi)
            closing.append((len(spent), pl._halvings(hi - lo)))
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "_find_flip", counted)
            eigs = pl.painleve_eigenvalues(count, y0=y0)
        out[y0, count] = (_halving_route(count, y0), eigs, closing)
    return out


def test_growth_law_scan_finds_the_halving_route_flips(two_routes):
    # same number of flips, each new a_n inside the halving route's final
    # bracket widened by 1e-7
    for (y0, count), (brackets, eigs, _) in two_routes.items():
        assert len(brackets) == len(eigs) == count, y0
        for (lo, hi), e in zip(brackets, eigs):
            assert lo - 1e-7 <= e <= hi + 1e-7, (y0, e, lo, hi)


def test_flip_closing_spends_at_most_two_fates_over_halving(two_routes):
    for (y0, _), (_, _, closing) in two_routes.items():
        assert all(spent <= halvings + 2 for spent, halvings in closing), (y0, closing)


def test_departure_score_saves_a_third_of_the_halvings(two_routes):
    # on the ODE the score is near-linear, so the secant steps close each
    # scan bracket in 10-14 fates where halving takes 22-23
    for (y0, _), (_, _, closing) in two_routes.items():
        spent = sum(s for s, _ in closing)
        halvings = sum(h for _, h in closing)
        assert spent <= 2 * halvings / 3, (y0, closing)


@pytest.mark.parametrize("k", [1, 2])
def test_departure_follows_the_unstable_mode(painleve_eigs12, k):
    # the departing mode grows like exp((4/5) sqrt(2) (-x)^(5/4)), so
    # K = (4/5) sqrt(2) (-x*)^(5/4) + ln|a - a_n| is nearly constant near
    # a_2 and a_3, on both sides of the flip (4.8-5.4 at a_2, 10.1-10.6 at a_3)
    eigs, _ = painleve_eigs12
    ks = []
    for d in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for a in (eigs[k] - d, eigs[k] + d):
            x_star = classify_fate(a).departure
            ks.append(RATE * (-x_star) ** 1.25 + math.log(d))
    assert max(ks) - min(ks) < 1.0, ks
