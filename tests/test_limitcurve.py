import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.limitcurve import (CUBE_ROOT_2, GROWTH_CONSTANT, ParityMismatch,
                            alpha_closed_form, alpha_recursion, compute_A,
                            eta_consistency_check, implicit_Z, implicit_curve,
                            solve_limit_ode)


def test_ode_curve_endpoints():
    lc = solve_limit_ode(101)
    assert lc.zs[-1] == 1.0                       # Z(1) = 1 exactly
    assert abs(lc.zs[0] - CUBE_ROOT_2) < 1e-10    # Z(0) = 2^(1/3)
    # Z'(0) = 0: one-sided 3-point estimate cancels the quadratic term
    h = lc.ts[1]
    slope = (4 * lc.zs[1] - 3 * lc.zs[0] - lc.zs[2]) / (2 * h)
    assert abs(slope) < 1e-5


def test_curve_is_decreasing_and_above_t():
    lc = solve_limit_ode(201)
    assert all(b < a for a, b in zip(lc.zs, lc.zs[1:]))
    assert all(z >= t for t, z in zip(lc.ts, lc.zs))


def test_implicit_endpoints():
    assert implicit_Z(1.0) == 1.0
    assert implicit_Z(0.0) == CUBE_ROOT_2
    assert abs(implicit_Z(1e-6) - CUBE_ROOT_2) < 1e-10
    assert all(type(implicit_Z(t)) is float for t in (0.0, 0.5, 1.0))


def test_implicit_matches_ode_supnorm():
    lc = solve_limit_ode(1001)
    sup = max(abs(z - zi) for z, zi in zip(lc.zs, implicit_Z(lc.ts).tolist()))
    assert sup <= 1e-8


def _scalar_implicit_Z(t):
    """implicit_Z as a per-point scalar bisection in math arithmetic: the
    route the lockstep version replaced, kept as its reference."""
    def lhs(g):
        s = math.sqrt(max(g * g - 1.0, 0.0))
        return (1.0 + 3.0 * g * g) * (g + s) * (s - 2.0 * g) / (s + 2.0 * g)

    if t == 0.0:
        return CUBE_ROOT_2
    if t == 1.0:
        return 1.0
    lo, hi = 1.0, 1.0 + 4.0 / t
    # the first integral must be finite on the bracket end, -4/t^3 finite
    if t ** 3 == 0.0 or not (math.isfinite(lhs(hi)) and math.isfinite(-4.0 / t ** 3)):
        raise ValueError(t)
    target = -4.0 / t ** 3
    flo = lhs(lo) - target
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fm = lhs(mid) - target
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return t * (0.5 * (lo + hi))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [2, 21, 1001, 4001])
def test_implicit_grid_equals_scalar_bisection_bitwise(n):
    ts = [i / (n - 1) for i in range(n)]
    got = implicit_Z(ts)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    assert (_bits(got) == _bits([_scalar_implicit_Z(t) for t in ts])).all()


def _outcome(fn, arg):
    try:
        return _bits(fn(arg)).tolist()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# Below t ~ 5.4e-77 the bracket 1 + 4/t overflows the first integral:
# both routes must refuse such t alike.
@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=50))
def test_implicit_any_grid_equals_scalar_bisection_bitwise(ts):
    assert (_outcome(implicit_Z, ts)
            == _outcome(lambda ts: [_scalar_implicit_Z(t) for t in ts], ts))
    for t in ts[:3]:
        assert _outcome(implicit_Z, t) == _outcome(_scalar_implicit_Z, t)


def test_implicit_first_integral_identity():
    # Plugging (t, G = Z/t) from the ODE solution back into the first
    # integral reproduces -4/t^3.
    from nel.limitcurve import _implicit_lhs

    lc = solve_limit_ode(101)
    for t, z in zip(lc.ts, lc.zs):
        if t < 0.05 or t == 1.0:
            continue
        val = _implicit_lhs(z / t)
        assert val == pytest.approx(-4.0 / t ** 3, rel=1e-8)


def test_implicit_domain_validation():
    with pytest.raises(ValueError):
        implicit_Z(1.5)
    with pytest.raises(ValueError):
        implicit_Z(-0.1)
    with pytest.raises(ValueError):
        implicit_Z(math.nan)
    with pytest.raises(ValueError):
        implicit_Z([0.0, 0.5, 1.0000001])


def test_implicit_rejects_t_below_the_overflow_floor():
    # the floor is the smallest t whose bracket end keeps the first integral
    # finite; the reference finds it by evaluating there, in math arithmetic
    from nel.limitcurve import _T_FLOOR

    below = math.nextafter(_T_FLOOR, 0.0)
    assert _outcome(implicit_Z, _T_FLOOR) == _outcome(_scalar_implicit_Z, _T_FLOOR)
    assert abs(implicit_Z(_T_FLOOR) - CUBE_ROOT_2) < 1e-15
    for t in (below, 1e-80, 1e-100, 1e-200, 5e-324):
        assert _outcome(_scalar_implicit_Z, t) is ValueError
        with pytest.raises(ValueError):
            implicit_Z(t)
    with pytest.raises(ValueError):
        implicit_Z([0.0, 0.5, 1e-80])


def test_implicit_curve_source_tag():
    ic = implicit_curve(11)
    assert ic.source == "implicit" and len(ic.ts) == 11


def test_growth_constant():
    a = compute_A()
    assert a == pytest.approx(GROWTH_CONSTANT, abs=1e-12)
    assert math.sqrt(2.0) * CUBE_ROOT_2 == pytest.approx(GROWTH_CONSTANT, abs=1e-15)


def test_growth_constant_against_extrapolated_intercepts():
    from nel.extrapolate import richardson
    from nel.separatrix import trace_separatrix_backward

    seq, idx = [], []
    for n in (125, 250, 500, 1000, 2000):
        rec, _ = trace_separatrix_backward(n, dense=False)
        seq.append(math.sqrt(2.0) * rec.a_n / math.sqrt(2 * n - 0.5))
        idx.append(n)
    est = richardson(seq, idx, stages=4).limit
    assert abs(est - compute_A()) < 1e-5


# -- alpha table -------------------------------------------------------------


def test_alpha_initial_conditions():
    tab = alpha_recursion(6, 6)
    assert tab.value(2, 0) == 1
    assert all(tab.value(n, 0) == 0 for n in (1, 3, 4, 5, 6))


def test_alpha_known_entries():
    tab = alpha_recursion(4, 4)
    assert tab.value(1, 1) == Fraction(-1, 2)
    assert tab.value(2, 2) == Fraction(1, 4)
    assert tab.value(3, 1) == Fraction(-1, 2)
    # one hop from alpha_{2,2}: the formula as written gives -1/8
    assert tab.value(1, 3) == Fraction(-1, 8)
    assert alpha_closed_form(1, 3) == Fraction(-1, 8)


def test_alpha_closed_form_values():
    assert alpha_closed_form(2, 2) == Fraction(1, 4)
    assert alpha_closed_form(1, 1) == Fraction(-1, 2)
    assert alpha_closed_form(2, 0) == 1
    assert alpha_closed_form(5, 1) == 0      # support ends at n = k + 2


def test_alpha_parity():
    with pytest.raises(ParityMismatch):
        alpha_closed_form(2, 3)
    with pytest.raises(ParityMismatch):
        alpha_closed_form(1, 2)
    tab = alpha_recursion(8, 8)
    for n in range(1, 9):
        for k in range(9):
            if (n - k) % 2 != 0:
                assert tab.value(n, k) == 0


def test_alpha_recursion_equals_closed_form_exactly():
    tab = alpha_recursion(32, 30)
    for k in range(31):
        for n in range(1, 33):
            if (n - k) % 2 == 0:
                assert tab.value(n, k) == alpha_closed_form(n, k), (n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
def test_alpha_spot_equality(n, k):
    if (n - k) % 2 != 0:
        return
    tab = alpha_recursion(max(n, 2), k)
    assert tab.value(n, k) == alpha_closed_form(n, k)


def test_alpha_column_mass_bounded():
    tab = alpha_recursion(34, 32)
    for k in range(1, 33):
        assert sum(abs(v) for v in tab.column(k)) <= 1


# -- eta consistency ---------------------------------------------------------


def test_eta_residual_small_and_shrinking(scaled_eta_pair):
    e50, e100, env50, env100 = scaled_eta_pair
    assert e50.residual_balance < 0.05
    assert env100 < env50


def test_eta_envelope_halves_when_n_doubles(scaled_eta_pair):
    _, _, env50, env100 = scaled_eta_pair
    assert 1.2 <= env50 / env100 <= 2.8


def test_eta_closed_form_tracks_direct(scaled_eta_pair):
    e50, _, env50, _ = scaled_eta_pair
    assert e50.mismatch_closed <= 5 * env50


def test_eta_vanishes_at_small_t():
    # t far below one oscillation wavelength (~0.008 at this index): the
    # integration range is effectively empty and the balance closes.
    ec = eta_consistency_check(50, 1e-4)
    assert abs(ec.eta_direct) < 1e-7
    assert ec.residual_balance < 1e-3


def test_eta_rejects_bad_t():
    with pytest.raises(ValueError):
        eta_consistency_check(50, 0.0)
    with pytest.raises(ValueError):
        eta_consistency_check(50, 1.5)


def test_envelope_traces_once_and_samples_equal_pointwise_checks(monkeypatch):
    import nel.limitcurve as lcm

    traces, seen = [], []
    trace, check = lcm._scaled_trace, lcm._eta_at
    monkeypatch.setattr(lcm, "_scaled_trace",
                        lambda *a: traces.append(a) or trace(*a))
    monkeypatch.setattr(lcm, "_eta_at",
                        lambda *a: seen.append((a[-1], check(*a))) or seen[-1][1])
    env = lcm.eta_balance_envelope(50, 0.5)
    monkeypatch.undo()
    assert len(traces) == 1 and len(seen) == lcm._ENVELOPE_SAMPLES == 13
    for t, ec in seen:
        want = eta_consistency_check(50, t)
        assert (_bits(list(ec.__dict__.values())) == _bits(list(want.__dict__.values()))).all()
    assert env == max(ec.residual_balance for _, ec in seen)
