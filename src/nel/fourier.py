"""Square-wave Fourier sine sections: the classical model of oscillatory,
non-uniform convergence that the scaled eigencurves mimic.

S_{2N+1}(x) = (4/pi) sum_{n=0}^{N} sin((2n+1)x)/(2n+1) converges to 1 on
(0, pi) while its overshoot near the endpoints tends to (2/pi) Si(pi).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fourier_partial_sum", "first_peak_location", "gibbs_overshoot",
           "GIBBS_LIMIT"]

# (2/pi) Si(pi), the overshoot limit
GIBBS_LIMIT = 1.1789797444721675

_ROWS = 64      # rows of sines in one product, a whole number of 8-row groups


def _row_ranges(m: int) -> list[tuple[int, int]]:
    """Row ranges of an m-row grid, one product each, whose sums have the
    bits of a one-thread product of the whole grid at one or two BLAS
    threads.

    OpenBLAS sums a product's rows in groups of four and its last m % 4
    rows by narrower kernels, whose bits can differ, and two threads split
    the rows into halves, ceil(m/2) and the rest, of at least 4 rows.  So
    each range but the last is _ROWS rows or a whole number of 8-row
    groups, which halve into whole groups, and the last holds the m % 8
    rows left, at most 7, which halve into 4 rows and the rest.  A lone last
    row of a longer grid is read from a range of the grid's last 5 rows,
    because numpy sums a one-row product as a dot product."""
    whole = m - m % 8
    ranges = [(r, min(r + _ROWS, whole)) for r in range(0, whole, _ROWS)]
    if m > whole:
        ranges.append((m - 5 if m - whole == 1 and m > 1 else whole, m))
    return ranges


def fourier_partial_sum(n_terms: int, xs) -> np.ndarray:
    """S_{2N+1} sampled on xs for N = n_terms.

    The sines are summed over the ranges of ``_row_ranges``, so the largest
    array is one _ROWS x (N + 1) block; a one-point grid is summed by
    numpy's pairwise sum, whose bits do not depend on the BLAS threads."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    x = np.ravel(np.asarray(xs, dtype=float))        # any shape, as np.outer reads it
    odd = 2 * np.arange(n_terms + 1) + 1
    weights = 1.0 / odd
    sums = np.empty(len(x))
    block = np.empty((min(_ROWS, len(x)), len(odd)))
    for a, b in _row_ranges(len(x)):
        rows = np.multiply.outer(x[a:b], odd, out=block[:b - a])
        np.sin(rows, out=rows)
        # numpy sums one row by BLAS ddot, which OpenBLAS threads from about
        # 16,383 terms; its pairwise sum uses no BLAS
        sums[a:b] = (np.multiply(rows[0], weights, out=rows[0]).sum() if b - a == 1
                     else rows.dot(weights))
    return (4.0 / math.pi) * sums


def first_peak_location(n_terms: int) -> float:
    """The derivative (2/pi) sin(2(N+1)x)/sin(x) first vanishes at
    pi / (2N + 2), which is where the global maximum (the overshoot) sits."""
    return math.pi / (2 * n_terms + 2)


def gibbs_overshoot(n_terms: int) -> float:
    """Value of the section at its first peak."""
    return float(fourier_partial_sum(n_terms, [first_peak_location(n_terms)])[0])
