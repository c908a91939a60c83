import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.extrapolate import (IllConditioned, fit_correction_exponent,
                             richardson)


def test_exact_single_correction():
    vals = [3 + 1 / n for n in (10, 20, 40)]
    r = richardson(vals, (10, 20, 40), exponents=(1, 2), stages=1)
    assert abs(r.limit - 3) < 1e-12


def test_polynomial_model_recovered_any_spacing():
    f = lambda n: 1 + 2 / n - 3 / n ** 2 + 0.5 / n ** 3
    idx = (3.0, 5.0, 8.0, 13.0)
    r = richardson([f(n) for n in idx], idx, stages=3)
    assert abs(r.limit - 1) < 1e-12


def test_geometric_noninteger_exponents():
    f = lambda n: 7 - 2.5 * n ** -0.6 + 1.1 * n ** -1.7
    idx = (10.0, 20.0, 40.0, 80.0)
    r = richardson([f(n) for n in idx], idx, exponents=(0.6, 1.7), stages=2)
    assert abs(r.limit - 7) < 1e-10


def test_error_estimate_and_table_shape():
    f = lambda n: 2 + 1 / n + 3 / n ** 2
    idx = (8, 16, 32, 64, 128)
    r = richardson([f(n) for n in idx], idx, stages=3)
    assert len(r.table) == 4
    assert len(r.table[0]) == 5 and len(r.table[3]) == 2
    assert r.error_estimate >= 0
    assert abs(r.limit - 2) < 1e-12


def test_monotone_error_with_stages():
    f = lambda n: 5 + 1 / n - 2 / n ** 2 + 1 / n ** 3 - 1 / n ** 4
    idx = (10, 20, 40, 80, 160)
    errs = [abs(richardson([f(n) for n in idx], idx, stages=s).limit - 5)
            for s in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        richardson([1.0], [1.0])
    with pytest.raises(ValueError):
        richardson([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        richardson([1.0, 2.0], [1.0, 2.0], stages=5)
    with pytest.raises(ValueError):
        richardson([1.0, 2.0, 3.0], [1, 2, 3], exponents=(2.0, 1.0), stages=2)


def test_ill_conditioned_raises():
    idx = [10.0 + 1e-9 * k for k in range(6)]
    with pytest.raises((IllConditioned, ZeroDivisionError)):
        richardson([1.0] * 6, idx, stages=5)


def test_fit_correction_exponent():
    f = lambda n: 4 + 0.7 / n ** 1.5
    idx = (10, 20, 40, 80)
    p = fit_correction_exponent([f(n) for n in idx], idx, 4.0)
    assert p == pytest.approx(1.5, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=4),
       st.floats(min_value=-10, max_value=10))
def test_exactness_property(coeffs, limit):
    # s_n = L + sum_j c_j / n^j is recovered to machine precision whenever
    # stages >= polynomial degree, regardless of node spacing.
    idx = (7.0, 11.0, 19.0, 37.0, 73.0)
    f = lambda n: limit + sum(c / n ** (j + 1) for j, c in enumerate(coeffs))
    r = richardson([f(n) for n in idx], idx, stages=4)
    scale = max(1.0, abs(limit), max(abs(c) for c in coeffs))
    assert abs(r.limit - limit) < 1e-9 * scale


@pytest.mark.parametrize("values, indices, exponents", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, math.nan], None),
    ([1.0, 2.0, 3.0], [math.nan, 2.0, 3.0], None),
    ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf], None),
    ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], None),
    ([1.0, 2.0, -math.inf], [1.0, 2.0, 3.0], None),
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], (1.0, math.inf)),
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], (math.nan, 2.0)),
], ids=["nan-last-index", "nan-first-index", "inf-index", "nan-value", "inf-value",
        "inf-exponent", "nan-exponent"])
def test_non_finite_input_raises(values, indices, exponents):
    # NaN fails every ordering test, so a NaN index used to pass as
    # "increasing" and give a finite limit
    with pytest.raises(ValueError, match="finite"):
        richardson(values, indices, exponents=exponents, stages=1)
