import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.cosine import bundle_index, rhs_unscaled, tail_coefficients, trapped_in_even_bundle
from nel.ode import IntegratorConfig, integrate
from nel.separatrix import (_STRIP_THETA, BracketFailure, Undecidable, _backward_seed,
                            _forward_span, backward_start, find_eigenvalue_bisect,
                            maxima_count, scaled_separatrix, trace_separatrix_backward)

from published import FIG2_CAPTION
from reference import extrema

CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)
THETA = _STRIP_THETA


def _landing(a):
    """(bundle index m at the end, stopped) of maxima_count's forward run."""
    traj = integrate(rhs_unscaled, 0.0, a, _forward_span(a), dense=False,
                     stop_when=trapped_in_even_bundle)
    return bundle_index(traj.x_end, traj.y_end), traj.stopped


def test_classify_basic_classes():
    assert maxima_count(0.5) == 1
    assert maxima_count(2.0) == 2
    assert _landing(0.5) == (0, True)
    # the one maximum, bracketed on a dense run over the whole span
    traj = integrate(rhs_unscaled, 0.0, 0.5, _forward_span(0.5))
    ((x_l, x_r),) = [(l, r) for l, r, kind in extrema(traj) if kind == "max"]
    assert 0 < x_l < x_r < 2


def test_classify_negative_initial_condition_via_reflection():
    # w(x) = -y(-x) solves the same equation, so classifying a < 0 forward
    # agrees with the reflected problem's backward continuation.  The trap
    # holds only bundles m >= 0, so the run ends at the span's end.
    m, stopped = _landing(-1.5)
    assert m % 2 == 0 and m < 0
    assert not stopped


def test_classify_monotone_in_a():
    counts = [maxima_count(a) for a in [0.1 + 0.25 * k for k in range(24)]]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_bisect_first_eigenvalue():
    a_n = find_eigenvalue_bisect(1)
    assert isinstance(a_n, float)
    assert abs(a_n - FIG2_CAPTION[1]) < 1e-5


def test_bisect_fourth_eigenvalue():
    assert abs(find_eigenvalue_bisect(4) - FIG2_CAPTION[4]) < 1e-5


def test_bisect_monotone():
    vals = [find_eigenvalue_bisect(n) for n in range(1, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bisect_requires_positive_index():
    with pytest.raises(ValueError):
        find_eigenvalue_bisect(0)


def test_backward_trace_matches_reference():
    for n in (2, 6, 0):
        traj = trace_separatrix_backward(n, dense=False)
        assert abs(traj.y_end - FIG2_CAPTION[n]) < 1e-5
        assert traj.x_end == 0.0


def test_backward_trace_rejects_non_asymptotic_start():
    # n = 5 at x = 2 lies below x_c = 3.25, where no seed is known asymptotic
    with pytest.raises(Undecidable):
        trace_separatrix_backward(5, x_start=2.0)


def test_backward_trace_insensitive_to_start():
    r1 = trace_separatrix_backward(2, dense=False)
    r2 = trace_separatrix_backward(2, x_start=2 * backward_start(2), dense=False)
    assert abs(r1.y_end - r2.y_end) < 1e-9


def _strip_edge_squares(n):
    # x_c^2 = 2(|mu| - 1/3)/sqrt(3), x_s^2 = x_c^2 + 4K/pi with K = 40 e-folds
    mu = 2 * n - 0.5
    xc2 = (abs(mu) - THETA) / math.sin(math.pi * THETA)
    return xc2, xc2 + 2 * 40.0 / (math.pi * math.cos(math.pi * THETA))


def test_backward_start_below_seven_is_the_fallback():
    # the strip edge is the start of every n <= 6, in place of the fallback
    # max(20, 3 sqrt(max(|n|, 1))), and always nearer than it
    for n in range(-100_000, 7):
        start = backward_start(n)
        assert start.hex() == math.sqrt(_strip_edge_squares(n)[1]).hex(), n
        assert start < max(20.0, 3.0 * math.sqrt(max(abs(n), 1))), n


def test_backward_start_from_seven_on_is_the_nearer_of_t_1_8_and_the_strip_edge():
    # the strip edge is the start of every n >= 7; it is nearer than
    # t = 1.8 from n = 13 on and lies beyond it for n = 7..12
    for n in range(7, 100_001):
        start = backward_start(n)
        assert start.hex() == math.sqrt(_strip_edge_squares(n)[1]).hex(), n
        assert (start < 1.8 * math.sqrt(2 * n - 0.5)) == (n >= 13), n
    assert backward_start(13) / math.sqrt(25.5) == pytest.approx(1.7711, abs=1e-4)


def test_backward_start_keeps_scaled_t_max_above_one():
    # the eta windows stop at t = 1, so every trace must reach beyond it
    assert min(backward_start(n) / math.sqrt(2 * n - 0.5) for n in range(1, 100_001)) > 1.07
    for n in (13, 10_000):
        # scaled_separatrix reads up to t_max and no further
        t_max = backward_start(n) / math.sqrt(2 * n - 0.5)
        assert math.isfinite(scaled_separatrix(n, [t_max])[0])
        with pytest.raises(ValueError):
            scaled_separatrix(n, [t_max * (1 + 1e-9)])


# a_n, bit for bit, of n >= 13, which started at the strip edge before the
# rule covered every n
_STRIP_START_HEX = {
    13: '0x1.979791285ca6fp+2', 100: '0x1.1cbfdf3c253ccp+4', 1_000: '0x1.c2b544e58918fp+5',
    10_000: '0x1.645af60fa10ddp+7', 100_000: '0x1.19bae040590e8p+9',
}


def test_backward_trace_bits_kept_where_the_start_is_kept():
    for n, want in _STRIP_START_HEX.items():
        assert trace_separatrix_backward(n, dense=False).y_end.hex() == want, n


# a_n, bit for bit, of n <= 12 from the start before the strip rule reached
# them: max(20, 3 sqrt(max(|n|, 1))) for n <= 6, 1.8 sqrt(2n - 1/2) for
# n = 7..12, both seeded from the six-term tail
_KEPT_START_HEX = {
    -1000: '-0x1.c2d21e2b35bacp+5', -100: '-0x1.1d764efde4ae3p+4',
    -12: '-0x1.8f8aab3b8c393p+2', -11: '-0x1.7eef38089e672p+2', -10: '-0x1.6d9339e698376p+2',
    -9: '-0x1.5b59ecd7eace8p+2', -8: '-0x1.481e976d22148p+2', -7: '-0x1.33b112850e37fp+2',
    -6: '-0x1.1dd0177ff5cd3p+2', -5: '-0x1.061f4b299a450p+2', -4: '-0x1.d828a767a62e9p+1',
    -3: '-0x1.9d9d33c4b593cp+1', -2: '-0x1.5964281009dfbp+1', -1: '-0x1.042de7ce51e27p+1',
    0: '-0x1.04468cce4d559p+0', 1: '0x1.9a42383c5b807p+0', 2: '0x1.31b5b839d9385p+1',
    3: '0x1.7d03ee45f82e6p+1', 4: '0x1.bbd8666d3a2b0p+1', 5: '0x1.f2e0c13fa89d2p+1',
    6: '0x1.1238eb93507e9p+2', 7: '0x1.28f3fded0c921p+2', 8: '0x1.3e11b1e69d938p+2',
    9: '0x1.51df339cf0249p+2', 10: '0x1.649450a84e6bdp+2', 11: '0x1.765aeea850584p+2',
    12: '0x1.87537544e1e14p+2',
}


def _tolerance_gap(x_start, y0):
    # a_n at the default rel_tol 1e-10 minus a_n at 1e-13, from one start
    tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    default = integrate(rhs_unscaled, x_start, y0, 0.0, dense=False).y_end
    return abs(default - integrate(rhs_unscaled, x_start, y0, 0.0, tight, dense=False).y_end)


def test_backward_trace_shift_stays_within_the_tolerance_gap():
    for n, want in _KEPT_START_HEX.items():
        # the old route, rebuilt here, still gives the old bits
        x_old = (1.8 * math.sqrt(2 * n - 0.5) if n >= 7
                 else max(20.0, 3.0 * math.sqrt(max(abs(n), 1))))
        y_old = (2 * n - 0.5) / x_old
        for k, c in enumerate(tail_coefficients(2 * n - 1), start=1):
            y_old += c * x_old ** (-(2 * k + 1))
        old = integrate(rhs_unscaled, x_old, y_old, 0.0, dense=False).y_end
        assert old.hex() == want, n
        x_new = backward_start(n)
        new = trace_separatrix_backward(n, dense=False).y_end
        gaps = (_tolerance_gap(x_old, y_old), _tolerance_gap(x_new, _backward_seed(n, x_new)))
        assert abs(new - old) <= max(*gaps, 1e-12), n


def _strip_depth(n, w):
    # distance of w = x y - mu into the strip from its edge w = 0
    return -w if 2 * n - 0.5 > 0 else w


@pytest.mark.parametrize("n", [-1_000, -3, 0, 1, 6, 12, 13, 50, 1_000, 10_000])
def test_backward_trace_stays_in_the_odd_bundle_strip(n):
    mu = 2 * n - 0.5
    xc = math.sqrt(_strip_edge_squares(n)[0])
    # the per-step samples: a run without dense output keeps only its ends
    traj = trace_separatrix_backward(n)
    assert traj.x_start > xc
    ws = [x * y - mu for x, y in zip(traj.xs, traj._ys) if x >= xc]
    assert len(ws) > 10
    assert all(0 < _strip_depth(n, w) < THETA for w in ws)


@pytest.mark.parametrize("n", [-3, 0, 1, 6, 13, 100, 1_000])
def test_strip_start_is_insensitive_to_the_seed(n):
    # seeds on the strip's inner edge, in its middle and next to its outer edge
    mu, xs = 2 * n - 0.5, backward_start(n)
    side = -1.0 if mu > 0 else 1.0
    ends = [integrate(rhs_unscaled, xs, (mu + side * d) / xs, 0.0, dense=False).y_end
            for d in (0.0, THETA / 2, 0.99 * THETA)]
    # the gap at n = 0 is 2.8e-14, a near-cancellation below the abs_tol
    # 1e-12, so the bound is never taken below 1e-12
    gap = _tolerance_gap(xs, _backward_seed(n, xs))
    assert max(ends) - min(ends) < max(gap, 1e-12)


def test_strip_start_takes_fewer_steps_than_x_20():
    # x = 20 was the start of every n = -3..6 before the strip rule
    for n in range(-3, 7):
        new = trace_separatrix_backward(n, dense=False)
        old = trace_separatrix_backward(n, x_start=20.0, dense=False)
        assert new.step_count + new.rejected < old.step_count + old.rejected, n


def test_strip_start_never_takes_more_steps_than_t_1_8():
    # n = 7..12 started at t = 1.8 before the strip rule and now take 12-137
    # more attempts from the strip edge, which lies beyond it there
    for n in (*range(13, 301), 1_000, 10_000, 100_000):
        new = trace_separatrix_backward(n, dense=False)
        old = trace_separatrix_backward(n, x_start=1.8 * math.sqrt(2 * n - 0.5), dense=False)
        assert new.step_count <= old.step_count, n


def test_strip_start_rejects_a_start_below_the_strip_edge():
    xc = math.sqrt(_strip_edge_squares(20)[0])
    with pytest.raises(Undecidable):
        trace_separatrix_backward(20, x_start=0.99 * xc)


# a tenth of the gap between the default tolerance and rel_tol 1e-13
# (ROADMAP item 1's error table)
@pytest.mark.parametrize("n, bound", [(100, 9.0e-9), (1_000, 2.7e-7), (4_000, 2.7e-6)])
def test_backward_start_agrees_with_the_old_start(n, bound):
    old_start = max(20.0, 3.0 * math.sqrt(n))
    assert backward_start(n) < old_start
    new = trace_separatrix_backward(n, dense=False)
    old = trace_separatrix_backward(n, x_start=old_start, dense=False)
    assert abs(new.y_end - old.y_end) < bound


def test_backward_trace_stable_under_seed_perturbation():
    xs = backward_start(2)
    y0 = _backward_seed(2, xs)
    base = integrate(rhs_unscaled, xs, y0, 0.0, dense=False).y_end
    pert = integrate(rhs_unscaled, xs, y0 + 1e-8, 0.0, dense=False).y_end
    assert abs(base - pert) < 1e-6


def test_forward_instability_witness():
    # Perturbing the intercept pushes the forward solution onto the even
    # bundles on either side of the odd separatrix tail.
    a2 = FIG2_CAPTION[2]
    assert _landing(a2 - 1e-6) == (2, True)
    assert _landing(a2 + 1e-6) == (4, True)
    assert maxima_count(a2 + 1e-6) == maxima_count(a2 - 1e-6) + 1


def test_eigenvalue_table_cross_method(reference_table):
    # the records of `nel eigen --n=-3:6 --method both`: n >= 1 carries the
    # backward a_n, its tail, and the bisection's distance from it
    table, _ = reference_table
    for rec in table:
        if rec["n"] >= 1:
            assert abs(rec["a_n"] - FIG2_CAPTION[rec["n"]]) < 1e-5
            assert (rec["method"], rec["tail_m"]) == ("backward", 2 * rec["n"] - 1)
            assert rec["residual"] is not None and rec["residual"] < 1e-7, rec


def test_eigenvalue_table_includes_negative_indices(reference_table):
    # n <= 0 is listed too, traced backward, with no bisection to compare
    table, _ = reference_table
    assert [r["n"] for r in table] == list(range(-3, 7))
    for rec in table:
        assert abs(rec["a_n"] - FIG2_CAPTION[rec["n"]]) < 1e-5
        if rec["n"] < 1:
            assert (rec["method"], rec["tail_m"]) == ("backward", 2 * rec["n"] - 1)
            assert rec["residual"] is None, rec


def test_scaled_separatrix_values():
    s = math.sqrt(2 * 1000 - 0.5)
    t_max = backward_start(1000) / s

    def z(t):
        return scaled_separatrix(1000, [t])[0]

    # the trace starts at the strip edge, t = 1.086 at n = 1000
    assert t_max == pytest.approx(1.0863, abs=1e-4)
    assert z(0.0) == pytest.approx(trace_separatrix_backward(1000, dense=False).y_end / s)
    # merges onto the 1/t tail beyond the turning point: in the strip
    # |z - 1/t| = |w|/(mu t) < 1/(3 mu t), about 1.6e-4 here
    for t in (1.05, 1.07, t_max):
        assert abs(z(t) - 1 / t) < 1e-3
    # a read of one t is the grid read at it
    ts = [0.0, 0.3, 1.0, 1.05, t_max]
    assert [z(t).hex() for t in ts] == [v.hex() for v in scaled_separatrix(1000, ts)]


@pytest.mark.parametrize("n", [1, 3, 2000, 6979])
def test_scaled_separatrix_reads_the_dense_trace_bitwise(n):
    # fig4's grid and fig3's, shuffled and with repeats, then t = 0 (the
    # trace's end x = 0), t_max (its start x_s) and the trace's own nodes
    # (a node reads the step it starts, at th = 0)
    s = math.sqrt(2 * n - 0.5)
    full = trace_separatrix_backward(n)
    t_max = backward_start(n) / s
    fig4 = [i / 2000 for i in range(2001)]
    ts = ([t for t in fig4 if t <= t_max] + [2.2 * i / 1100 for i in range(1101)
                                              if 2.2 * i / 1100 <= t_max])
    ts = [ts[(37 * k) % len(ts)] for k in range(len(ts))] + ts[::5]
    ts += [0.0, t_max] + [x / s for x in list(full.xs)[::7]]
    got = scaled_separatrix(n, ts)
    want = full.sample([s * t for t in ts]) / s
    assert [v.hex() for v in got] == [v.hex() for v in want.tolist()]


def test_scaled_separatrix_memory_is_set_by_its_grid():
    # The read keeps the record of only the steps that hold a grid point, so
    # its peak is a fixed number of words per point: the scaled grid and its
    # sorted keys (about 7 words: the loop's keys are a float and a list
    # slot each), the kept record and its gathered copy (2 x 10), the
    # search's and the quartic's temporaries (about 16) and the values as
    # an array and a list (5), not all alive at once.  64 words = 512 bytes
    # a point bounds it; the dense trace it replaced kept 8 words for each
    # of the 61,000 steps at n = 5000, 4.7 MB against this bound's 1.0 MB.
    grid = [i / 2000 for i in range(2001)]
    scaled_separatrix(5, grid)                  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scaled_separatrix(5000, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 512 * len(grid), peak


def test_scaled_intercept_converges_to_cube_root_two():
    assert abs(scaled_separatrix(1000, [0.0])[0] - CUBE_ROOT_2) < 1e-3


def test_scaled_separatrix_grid_sampling():
    grid = [0.0, 0.25, 0.5, 1.0]
    vals = scaled_separatrix(3, grid)
    assert len(vals) == 4
    with pytest.raises(ValueError):
        scaled_separatrix(3, [99.0])
    with pytest.raises(ValueError):
        scaled_separatrix(0, [0.0])


def test_scaled_intercepts_approach_growth_constant_monotonically(geometric_intercepts):
    a_law = 2.0 ** (5.0 / 6.0)
    seq = [math.sqrt(2.0) * geometric_intercepts[n] / math.sqrt(2 * n - 0.5)
           for n in sorted(geometric_intercepts)]
    gaps = [abs(v - a_law) for v in seq]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(v > a_law for v in seq)   # approach from above at these n


def test_oscillation_amplitude_halves_when_n_doubles():
    # The scaled eigencurves oscillate about their smooth limit with
    # amplitude O(1/lambda); compare peak deviations from the far-larger-n
    # curve, which is a stand-in for the limit on [0, 0.9].
    grid = [0.9 * k / 400 for k in range(401)]
    ref = scaled_separatrix(3200, grid)

    def sup_dev(n):
        return max(abs(z - r) for z, r in zip(scaled_separatrix(n, grid), ref))

    ratio = sup_dev(100) / sup_dev(200)
    assert 1.4 < ratio < 2.6


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_tol_not_positive_and_finite(tol, monkeypatch):
    # tol = 0 would never end the bisection; nan or inf would end it at once
    # on the seed bracket's midpoint; the bisection refuses it before any
    # integration
    import nel.separatrix

    calls = []
    monkeypatch.setattr(nel.separatrix, "integrate", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="tol"):
        find_eigenvalue_bisect(1, tol)
    assert calls == []


def _bracket_floor(n):
    # the float spacing at 2^(5/6) sqrt(n) + 7, a conservative bound above
    # the bracket's upper end 2^(5/6) sqrt(n) + 1
    return math.ulp(2.0 ** (5.0 / 6.0) * math.sqrt(n) + 7.0)


@pytest.mark.parametrize("n", [1, 4, 100, 100_000])
def test_tol_below_float_spacing_refused_before_any_integration(n, monkeypatch, deadline):
    # below the spacing, adjacent bracket ends stay wider than tol and the
    # halving never ends
    import nel.separatrix

    calls = []
    integrate = nel.separatrix.integrate
    monkeypatch.setattr(nel.separatrix, "integrate",
                        lambda *a, **k: calls.append(a) or integrate(*a, **k))
    with deadline(30):
        for tol in (1e-300, math.nextafter(_bracket_floor(n), 0.0)):
            with pytest.raises(ValueError, match="tol"):
                find_eigenvalue_bisect(n, tol)
    assert calls == []


def test_tol_at_float_spacing_ends_the_bisection(deadline):
    # the floor itself is allowed, and the halving reaches it
    floor = _bracket_floor(1)
    with deadline(60):
        a_n = find_eigenvalue_bisect(1, floor)
    assert abs(a_n - find_eigenvalue_bisect(1)) < 1e-10


# -- the even-bundle trap that ends each maxima count ------------------------

def _full_span_count(a):
    """Reference: the + to - sign changes of y' over the whole forward span."""
    traj = integrate(rhs_unscaled, 0.0, a, max(12.0, 2.5 * abs(a)))
    return sum(kind == "max" for _, _, kind in extrema(traj))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-6.0, max_value=12.0))
def test_stopped_count_equals_full_span_count(a):
    # the level-crossing law covers both signs of a
    assert maxima_count(a) == _full_span_count(a)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("k", range(2, 12))
@pytest.mark.parametrize("n", range(1, 11))
def test_stopped_count_equals_full_span_count_near_intercepts(n, k, side, cross_method_10):
    # a_n from the backward trace, the route independent of the count
    a = cross_method_10[n][1] + side * 10.0 ** -k
    assert maxima_count(a) == _full_span_count(a)


@pytest.mark.parametrize("a", [0.5, 2.0, 5.0])
def test_maxima_count_stops_before_the_span(a, monkeypatch):
    import nel.separatrix

    calls, trajs = [], []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(nel.separatrix, "integrate", recorded)
    count = maxima_count(a)
    (kwargs,), (traj,) = calls, trajs
    # no extremum is located: the run keeps no dense output to read one from
    assert kwargs["dense"] is False
    assert traj.stopped
    assert traj.x_end < _forward_span(a)
    assert count == _full_span_count(a)


def _halving_on_full_span_count(n, tol=1e-10):
    """find_eigenvalue_bisect's bracket and halving on the full-span count."""
    def above(a):
        return _full_span_count(a) >= n + 1

    center = 2.0 ** (5.0 / 6.0) * math.sqrt(n)
    lo, hi = center - 1.0, center + 1.0
    assert not above(lo) and above(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_bisect_takes_two_bracket_checks_and_plain_halvings(monkeypatch):
    # the flip finder gets the constant score 0.0, so it never takes a secant
    # step: n = 6 takes its 2 bracket checks and 35 halvings from width 2 to
    # 1e-10, every probe at the midpoint of the bracket left by the one before
    import nel.separatrix

    probes = []
    count = nel.separatrix.maxima_count

    def recorded(a):
        probes.append(a)
        return count(a)

    monkeypatch.setattr(nel.separatrix, "maxima_count", recorded)
    a_n = find_eigenvalue_bisect(6)
    assert len(probes) == 37
    lo, hi = probes[:2]
    for a in probes[2:]:
        assert a == 0.5 * (lo + hi)
        lo, hi = (lo, a) if count(a) >= 7 else (a, hi)
    assert hi - lo <= 1e-10 and a_n == 0.5 * (lo + hi)


@pytest.mark.parametrize("shift", [-3.0, 3.0])
def test_bisect_raises_after_two_probes_without_a_flip_in_the_law_bracket(shift,
                                                                          monkeypatch):
    # a count shifted by 3 in a flips outside 2^(5/6) sqrt(n) +- 1: both
    # ends are probed, and BracketFailure follows with no further probe
    import nel.separatrix

    probes = []
    count = nel.separatrix.maxima_count
    monkeypatch.setattr(nel.separatrix, "maxima_count",
                        lambda a: probes.append(a) or count(a + shift))
    with pytest.raises(BracketFailure):
        find_eigenvalue_bisect(6)
    center = 2.0 ** (5.0 / 6.0) * math.sqrt(6)
    assert probes == [center - 1.0, center + 1.0]


def test_intercepts_lie_within_0_2_of_the_growth_law(cross_method_10, geometric_intercepts):
    # the bisection's bracket 2^(5/6) sqrt(n) +- 1 rests on this:
    # a_n - 2^(5/6) sqrt(n) is -0.179 at n = 1 and shrinks toward 0 with n
    traced = [(n, a_n) for n, pair in cross_method_10.items() for a_n in pair]
    traced += list(geometric_intercepts.items())
    for n, a_n in traced:
        assert abs(a_n - 2.0 ** (5.0 / 6.0) * math.sqrt(n)) < 0.2, n


def test_bisect_on_the_law_equals_halving_on_located_counts(cross_method_10):
    # every bisection decision, and so every bit of a_n, is that of the
    # route that counts each maximum over the whole span
    for n in range(1, 11):
        assert cross_method_10[n][0].hex() == _halving_on_full_span_count(n).hex(), n
    assert (find_eigenvalue_bisect(3, 1e-9).hex()
            == _halving_on_full_span_count(3, 1e-9).hex())


@pytest.mark.parametrize("x, y, trapped", [
    (2.0, 0.375, True),     # m = 0, w = 1/4
    (2.0, 0.25, False),     # w = 0: a maximum may sit on this node
    (2.0, 0.5, False),      # w = 1/2
    (1.0, 0.75, False),     # x^2 = m + 1
    (2.0, 0.875, False),    # m = 1, odd
    (2.0, -0.125, False),   # m = -1
    (4.0, 0.6875, True),    # m = 2, w = 1/4, x^2 = 16 > 3
])
def test_trap_predicate_boundaries(x, y, trapped):
    assert trapped_in_even_bundle(x, y) is trapped


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=-1.0, max_value=8.0))
def test_trap_predicate_is_the_half_width_strip(x, y):
    # the width-1/2 strip test, written out: sin(pi/2) == 1.0 and
    # m + 0.5 + 0.5 == m + 1, so it is the same predicate
    u = x * y - 0.5
    m = math.floor(u)
    w = u - m
    assert trapped_in_even_bundle(x, y) is (m >= 0 and m % 2 == 0 and 0.0 < w < 0.5
                                            and x * x > m + 1)


def test_bisect_intercepts_keep_their_bits(cross_method_10):
    # the maxima count stops at the same step as before the trap test became
    # the width-1/2 case of the strip test
    assert [cross_method_10[n][0].hex() for n in range(1, 7)] == [
        "0x1.9a42383c8c128p+0", "0x1.31b5b83a2728bp+1", "0x1.7d03ee4686aeep+1",
        "0x1.bbd8666ddc128p+1", "0x1.f2e0c14062ae8p+1", "0x1.1238eb93cc229p+2"]


def _rk4_trajectory(x, y, x_end, h):
    def f(x, y):
        return math.cos(math.pi * x * y)

    out = [(x, y)]
    while x < x_end:
        k1 = f(x, y)
        k2 = f(x + h / 2, y + h / 2 * k1)
        k3 = f(x + h / 2, y + h / 2 * k2)
        k4 = f(x + h, y + h * k3)
        x, y = x + h, y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append((x, y))
    return out


@pytest.mark.parametrize("m", [0, 2, 10, 20])
@pytest.mark.parametrize("w", [0.02, 0.15, 0.25, 0.35, 0.48])
def test_trap_holds_under_an_independent_rk4(m, w):
    # Outside the code under test: a fixed-step RK4 from inside the strip,
    # just past x^2 = m + 1, to 3 sqrt(m + 1); w must stay in (0, 1/2) and
    # y' = cos(pi x y) must stay negative at every step.
    x0 = math.sqrt(m + 1) * 1.001
    y0 = (m + 0.5 + w) / x0
    assert trapped_in_even_bundle(x0, y0)
    for x, y in _rk4_trajectory(x0, y0, 3 * math.sqrt(m + 1), 1e-3):
        assert 0 < x * y - (m + 0.5) < 0.5
        assert math.cos(math.pi * x * y) < 0
