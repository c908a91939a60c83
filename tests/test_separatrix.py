import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.cosine import rhs_unscaled, trapped_in_even_bundle
from nel.ode import find_extrema, integrate
from nel.separatrix import (_forward_span, backward_start,
                            classify_initial_condition, eigenvalue_table,
                            find_eigenvalue_bisect, maxima_count,
                            scaled_separatrix, scaled_separatrix_evaluator,
                            trace_separatrix_backward)

# Reference intercepts, 7 significant digits (independently tabulated; the
# n=6 entry is the cross-validated value from both methods in this package,
# which differs from one published table in the 5th decimal).
REFERENCE = {
    -3: -3.231360, -2: -2.698369, -1: -2.032651, 0: -1.016702,
    1: 1.602573, 2: 2.388358, 3: 2.976682, 4: 3.467542, 5: 3.897484,
    6: 4.284724,
}

CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)


def test_classify_basic_classes():
    assert classify_initial_condition(0.5).n_maxima == 1
    assert classify_initial_condition(2.0).n_maxima == 2
    c = classify_initial_condition(0.5)
    assert c.bundle_m == 0
    assert c.x_turn is not None and 0 < c.x_turn < 2


def test_classify_negative_initial_condition_via_reflection():
    # w(x) = -y(-x) solves the same equation, so classifying a < 0 forward
    # agrees with the reflected problem's backward continuation.
    c = classify_initial_condition(-1.5)
    assert c.bundle_m % 2 == 0
    assert c.bundle_m < 0


def test_classify_monotone_in_a():
    counts = [maxima_count(a)[0] for a in [0.1 + 0.25 * k for k in range(24)]]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_bisect_first_eigenvalue():
    rec = find_eigenvalue_bisect(1)
    assert rec.method == "bisect"
    assert abs(rec.a_n - REFERENCE[1]) < 1e-5


def test_bisect_fourth_eigenvalue():
    assert abs(find_eigenvalue_bisect(4).a_n - REFERENCE[4]) < 1e-5


def test_bisect_monotone():
    vals = [find_eigenvalue_bisect(n).a_n for n in range(1, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bisect_requires_positive_index():
    with pytest.raises(ValueError):
        find_eigenvalue_bisect(0)


def test_backward_trace_matches_reference():
    for n in (2, 6, 0):
        rec, traj = trace_separatrix_backward(n, dense=False)
        assert abs(rec.a_n - REFERENCE[n]) < 1e-5
        assert rec.tail_m == 2 * n - 1
        assert traj.x_end == 0.0


def test_backward_trace_rejects_non_asymptotic_start():
    from nel.cosine import TailNotAsymptotic

    with pytest.raises(TailNotAsymptotic):
        trace_separatrix_backward(5, x_start=2.0)


def test_backward_trace_insensitive_to_start():
    r1, _ = trace_separatrix_backward(2, dense=False)
    r2, _ = trace_separatrix_backward(2, x_start=2 * backward_start(2), dense=False)
    assert abs(r1.a_n - r2.a_n) < 1e-9


def test_backward_start_below_seven_is_the_fallback():
    for n in (*range(-60, 7), -10_000, -100_000):
        assert backward_start(n).hex() == max(20.0, 3.0 * math.sqrt(max(abs(n), 1))).hex(), n


def test_backward_start_from_seven_on_is_at_scaled_t_1_8():
    for n in (*range(7, 60), 100, 1_000, 4_000, 10_000, 100_000):
        assert backward_start(n).hex() == (1.8 * math.sqrt(2 * n - 0.5)).hex(), n


# a tenth of the gap between the default tolerance and rel_tol 1e-13
# (ROADMAP item 1's error table)
@pytest.mark.parametrize("n, bound", [(100, 9.0e-9), (1_000, 2.7e-7), (4_000, 2.7e-6)])
def test_backward_start_agrees_with_the_old_start(n, bound):
    old_start = max(20.0, 3.0 * math.sqrt(n))
    assert backward_start(n) < old_start
    new, _ = trace_separatrix_backward(n, dense=False)
    old, _ = trace_separatrix_backward(n, x_start=old_start, dense=False)
    assert abs(new.a_n - old.a_n) < bound


def test_backward_trace_stable_under_seed_perturbation():
    from nel.cosine import AsymptoticTail, asymptotic_tail_eval, rhs_unscaled
    from nel.ode import integrate

    xs = backward_start(2)
    y0, _ = asymptotic_tail_eval(AsymptoticTail(3), xs)
    base = integrate(rhs_unscaled, xs, y0, 0.0, dense=False).y_end
    pert = integrate(rhs_unscaled, xs, y0 + 1e-8, 0.0, dense=False).y_end
    assert abs(base - pert) < 1e-6


def test_forward_instability_witness():
    # Perturbing the intercept pushes the forward solution onto the even
    # bundles on either side of the odd separatrix tail.
    a2 = REFERENCE[2]
    below = classify_initial_condition(a2 - 1e-6)
    above = classify_initial_condition(a2 + 1e-6)
    assert below.bundle_m == 2
    assert above.bundle_m == 4
    assert above.n_maxima == below.n_maxima + 1


def test_eigenvalue_table_cross_method():
    table = eigenvalue_table(range(1, 5))
    for rec in table:
        assert abs(rec.a_n - REFERENCE[rec.n]) < 1e-5
        assert rec.residual is not None and rec.residual < 1e-7


def test_eigenvalue_table_includes_negative_indices():
    table = eigenvalue_table(range(-3, 2))
    assert [r.n for r in table] == [-3, -2, -1, 0, 1]
    for rec in table:
        assert abs(rec.a_n - REFERENCE[rec.n]) < 1e-5
        if rec.n < 1:
            assert rec.residual is None


def test_scaled_separatrix_values():
    z, t_max, rec = scaled_separatrix_evaluator(50)
    # the trace starts at t = 1.8 for n >= 7
    assert t_max >= 1.8 - 1e-12
    s = math.sqrt(2 * 50 - 0.5)
    assert z(0.0) == pytest.approx(rec.a_n / s)
    # merges onto the 1/t tail beyond the turning point
    for t in (1.5, 1.75):
        assert abs(z(t) - 1 / t) < 1e-3
    # a read of one t is the grid read at it
    ts = [0.0, 0.3, 1.0, 1.5, t_max]
    assert [z(t).hex() for t in ts] == [v.hex() for v in scaled_separatrix(50, ts)]


def test_scaled_intercept_converges_to_cube_root_two():
    z, _, _ = scaled_separatrix_evaluator(1000)
    assert abs(z(0.0) - CUBE_ROOT_2) < 1e-3


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
    # on the seed bracket's midpoint; both readers of tol refuse it before
    # any integration
    import nel.separatrix

    calls = []
    monkeypatch.setattr(nel.separatrix, "integrate", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="tol"):
        find_eigenvalue_bisect(1, tol)
    with pytest.raises(ValueError, match="tol"):
        eigenvalue_table(range(-1, 3), tol)
    assert calls == []


def _bracket_floor(n):
    # the float spacing at the widest bracket end, 2^(5/6) sqrt(n) + 1 + 12 * 0.5
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
            with pytest.raises(ValueError, match="tol"):
                eigenvalue_table([-2, 0, 1, n], tol)
    assert calls == []


def test_tol_at_float_spacing_ends_the_bisection(deadline):
    # the floor itself is allowed, and the halving reaches it
    floor = _bracket_floor(1)
    with deadline(60):
        rec = find_eigenvalue_bisect(1, floor)
    assert abs(rec.a_n - find_eigenvalue_bisect(1).a_n) < 1e-10
    # only the bisection reads tol: a table of n <= 0 takes any positive one
    assert [r.n for r in eigenvalue_table([-1, 0], 1e-300)] == [-1, 0]


# -- the even-bundle trap that ends each maxima count ------------------------

def _full_span_count(a):
    """Reference: the whole forward span, then find_extrema (no stop)."""
    traj = integrate(rhs_unscaled, 0.0, a, max(12.0, 2.5 * abs(a)))
    maxima = [x for x, _, kind in find_extrema(traj) if kind == "max"]
    return len(maxima), (maxima[-1] if maxima else None)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-6.0, max_value=12.0))
def test_stopped_count_equals_full_span_count(a):
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

    trajs = []

    def recorded(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(nel.separatrix, "integrate", recorded)
    maxima_count(a)
    (traj,) = trajs
    assert traj.stopped
    assert traj.x_end < _forward_span(a)


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
