import math

import numpy as np
import pytest

from nel.fourier import (GIBBS_LIMIT, first_peak_location, fourier_partial_sum,
                         gibbs_overshoot)


def si_pi_quadrature() -> float:
    # independent oracle: 32-point Gauss-Legendre for integral_0^pi sin(t)/t
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = 0.5 * math.pi * (nodes + 1.0)
    return float(0.5 * math.pi * np.sum(weights * np.sin(t) / t))


def test_gibbs_limit_constant_against_quadrature():
    assert 2.0 / math.pi * si_pi_quadrature() == pytest.approx(GIBBS_LIMIT, abs=1e-12)


def test_single_term_at_midpoint():
    val = fourier_partial_sum(0, [math.pi / 2])[0]
    assert val == pytest.approx(4.0 / math.pi, abs=1e-14)
    # S_1 = (4/pi) sin x peaks at pi/2: the overshoot of one term is 4/pi
    assert gibbs_overshoot(0) == pytest.approx(4.0 / math.pi, abs=1e-14)


def test_converges_to_one_inside_interval():
    val = fourier_partial_sum(80, [math.pi / 2])[0]
    assert abs(val - 1.0) < 0.01


def test_odd_symmetry_about_midpoint():
    xs = np.linspace(0.1, 1.0, 7)
    a = fourier_partial_sum(13, xs)
    b = fourier_partial_sum(13, math.pi - xs)
    assert np.allclose(a, b, atol=1e-12)


def test_peak_location_is_grid_max():
    n = 40
    xs = np.linspace(1e-4, math.pi - 1e-4, 20001)
    vals = fourier_partial_sum(n, xs)
    x_star = xs[int(np.argmax(vals))]
    assert abs(x_star - first_peak_location(n)) < 2 * (xs[1] - xs[0])
    assert gibbs_overshoot(n) >= vals.max() - 1e-9


def test_overshoot_converges_to_gibbs_limit():
    prev = None
    for n in (25, 50, 100, 200):
        err = abs(gibbs_overshoot(n) - GIBBS_LIMIT)
        if prev is not None:
            assert err < prev
        prev = err
    assert abs(gibbs_overshoot(200) - GIBBS_LIMIT) < 1e-3


def test_validation():
    with pytest.raises(ValueError):
        fourier_partial_sum(-1, [0.5])
