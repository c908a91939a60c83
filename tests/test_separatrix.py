import math

import pytest

from nel.separatrix import (SeparatrixConfig,
                            backward_start, classify_initial_condition,
                            eigenvalue_table, find_eigenvalue_bisect,
                            maxima_count, scaled_separatrix,
                            scaled_separatrix_evaluator,
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


def test_backward_trace_stable_under_seed_perturbation():
    from nel.cosine import AsymptoticTail, asymptotic_tail_eval, rhs_unscaled
    from nel.ode import integrate

    cfg = SeparatrixConfig()
    xs = backward_start(2)
    y0, _ = asymptotic_tail_eval(AsymptoticTail(3), xs)
    base = integrate(rhs_unscaled, xs, y0, 0.0, cfg.ode, dense=False).y_end
    pert = integrate(rhs_unscaled, xs, y0 + 1e-8, 0.0, cfg.ode, dense=False).y_end
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
    table = eigenvalue_table(1, 4)
    for rec in table:
        assert abs(rec.a_n - REFERENCE[rec.n]) < 1e-5
        assert rec.residual is not None and rec.residual < 1e-7


def test_eigenvalue_table_includes_negative_indices():
    table = eigenvalue_table(-3, 1)
    assert [r.n for r in table] == [-3, -2, -1, 0, 1]
    for rec in table:
        assert abs(rec.a_n - REFERENCE[rec.n]) < 1e-5
        if rec.n < 1:
            assert rec.residual is None


def test_scaled_separatrix_values():
    z, t_max, rec = scaled_separatrix_evaluator(50)
    assert t_max > 2.0
    s = math.sqrt(2 * 50 - 0.5)
    assert z(0.0) == pytest.approx(rec.a_n / s)
    # merges onto the 1/t tail beyond the turning point
    for t in (1.5, 2.0):
        assert abs(z(t) - 1 / t) < 1e-3


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
def test_config_rejects_tol_not_positive_and_finite(tol):
    # tol = 0 would never end the bisection; nan or inf would end it at once
    # on the seed bracket's midpoint
    with pytest.raises(ValueError):
        SeparatrixConfig(tol=tol)
