import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nel.fourier import (GIBBS_LIMIT, _row_ranges, first_peak_location, fourier_partial_sum,
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


# (n_terms, grid) on the CLI's grid pi i / (grid + 1): the grid's last row
# moved with the BLAS thread count when the whole grid was one product
# (1 or 2 ulps at 460 terms on 1,001 points, 200 on 4,001, 466 on 1,025 and
# 2000 on 1,026); grids that end in a lone row, or in a range that two
# threads split off its 4-row groups, at up to 8191 terms; one point, which
# BLAS summed as a dot product that two threads split from about 16,383 terms
_THREAD_CASES = [(460, 1001), (200, 4001), (466, 1025), (2000, 1026), (8191, 1001),
                 (1000, 73), (63, 129), (0, 1), (5, 9), (16383, 1), (32767, 1), (100000, 1)]
_DIGEST = """
import hashlib, math
from nel.fourier import fourier_partial_sum
for n_terms, grid in {cases}:
    xs = [math.pi * i / (grid + 1) for i in range(1, grid + 1)]
    print(hashlib.sha256(fourier_partial_sum(n_terms, xs).tobytes()).hexdigest())
"""


def test_partial_sum_bits_do_not_depend_on_the_blas_thread_count():
    import nel

    src = os.path.dirname(os.path.dirname(nel.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", _DIGEST.format(cases=_THREAD_CASES)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == len(_THREAD_CASES)
    assert digests[0] == digests[1]


def test_row_ranges_cover_the_grid_in_whole_groups():
    for m in range(1, 300):
        ranges = _row_ranges(m)
        covered = [r for a, b in ranges for r in range(a, b)]
        assert sorted(set(covered)) == list(range(m)), m
        *whole, (a, b) = ranges
        assert all(q - p == 64 or (q - p) % 8 == 0 for p, q in whole), m
        assert b == m and (b - a <= 7 or (b - a) % 8 == 0), m
        assert (b - a != 1) or m == 1, m


def test_partial_sum_memory_is_one_block():
    # about 2^22 sines: 4096 terms on 1,024 points.  The sums are built 64
    # rows at a time in one 64 x 4096 block of float64, 2 MiB; beside it live
    # vectors of the grid's length (the points, the sums, the result) and of
    # the terms' (odd, weights, numpy's temporaries while building odd, the
    # cast buffer of the product): four of each length bound them.  The one
    # product of the whole grid held two 1,024 x 4,096 arrays, 64 MiB.
    n_terms, grid = 4095, 1024
    xs = [math.pi * i / (grid + 1) for i in range(1, grid + 1)]
    fourier_partial_sum(n_terms, xs[:64])          # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fourier_partial_sum(n_terms, xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * (64 * (n_terms + 1) + 4 * grid + 4 * (n_terms + 1)), peak
