"""Partial sums of theta-like unit-radius power series and their root moduli.

The coefficient family a_k = exp(i pi tau (k^2 + k)) has unit modulus, so
every partial sum S_n is a degree-n polynomial whose largest root modulus
rho_n probes how far outside the unit disk the section zeros reach.  Roots
are the eigenvalues of stacked companion matrices with Newton polish: a
single polynomial is a stack of one, and a tau scan solves its grid a chunk
of rows at a time, serially.  The one Horner evaluator of the package,
_horner, lives here.

Useful structure, exact in the phase arithmetic used here: a_k(tau + 1) =
a_k(tau) (k^2 + k is even) and a_k(1 - tau) = conj(a_k(tau)), so rho_n is
1-periodic and symmetric about tau = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "ftau_partial_sum",
    "all_roots",
    "rho_n",
    "tau_scan",
    "ScanResult",
]


# A tau scan solves this many (rows x degree^2) companion-matrix entries at a time.
_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class ComplexPolynomial:
    """Coefficients in ascending powers; the leading one must be nonzero."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("need degree >= 1")
        if self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def ftau_partial_sum(tau: float, n: int) -> ComplexPolynomial:
    """S_n with coefficients exp(i pi tau (k^2 + k)), k = 0..n.

    The phase tau (k^2 + k) is reduced mod 2 exactly, in integers over the
    binary denominator of tau, before multiplying by pi, which keeps the
    coefficients accurate at k ~ 200 where the raw phase is ~1e5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num, den = tau.as_integer_ratio()    # exact binary value of the float
    phases = [math.pi * (num * (k * k + k) % (2 * den) / den) for k in range(n + 1)]
    return ComplexPolynomial(tuple(complex(math.cos(p), math.sin(p)) for p in phases))


def _horner(c, s):
    """(p(s), p'(s)) for ascending coefficients c, by Horner's rule.

    s is a float, or an array that each entry of c broadcasts against.
    """
    p = dp = 0.0
    for cj in reversed(c):
        dp = dp * s + p
        p = p * s + cj
    return p, dp


def _roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, residuals |p(z_i)|) for each row of a (rows, d + 1) array of
    ascending coefficients with nonzero leading entries.

    The roots are the eigenvalues of the rows' monic companion matrices, one
    LAPACK call for the stack (a backward-stable root finder: Edelman and
    Murakami, Math. Comp. 64, 1995), then two Newton steps, each kept only
    where it lowers |p|.  Every operation acts on one row at a time, so a row
    gets the same bits in any batch.
    """
    rows, d = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((rows, d, d), dtype=complex)
    companion[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    z = np.linalg.eigvals(companion)
    cols = coeffs.T[:, :, None]
    # at a multiple root p' = 0 and the step overflows; |p| then rejects it
    with np.errstate(all="ignore"):
        p, dp = _horner(cols, z)
        for _ in range(2):
            trial = z - p / dp
            q, dq = _horner(cols, trial)
            lower = np.abs(q) < np.abs(p)
            z, p, dp = np.where(lower, trial, z), np.where(lower, q, p), np.where(lower, dq, dp)
    return z, np.abs(p)


def all_roots(poly: ComplexPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """All degree roots (as a complete multiset) plus residuals |p(z_i)|.

    Companion-matrix eigenvalues, Newton-polished; residuals are small
    against the coefficient scale sum|a_k| max(1,|z|)^n.
    """
    roots, residuals = _roots(np.asarray([poly.coefficients], dtype=complex))
    return roots[0], residuals[0]


def rho_n(tau: float, n: int) -> float:
    """Largest root modulus of the degree-n partial sum."""
    roots, _ = all_roots(ftau_partial_sum(tau, n))
    return float(np.max(np.abs(roots)))


@dataclass(frozen=True)
class ScanResult:
    taus: tuple[float, ...]
    rhos: tuple[float, ...]
    maxima: tuple[tuple[float, float], ...]   # interior local maxima, best first
    failures: tuple[float, ...]               # always empty; kept for readers of the field
    half_shift_gap: float                     # sup |rho(tau) - rho(tau + 1/2)|
    reflection_gap: float                     # sup |rho(tau) - rho(1 - tau)|


def tau_scan(tau_start: float, tau_end: float, step: float, n: int) -> ScanResult:
    """rho_n over a tau grid, with local maxima and symmetry gaps reported.

    Serial, one stacked eigenvalue call per chunk of grid points, sized so
    the (points, n, n) companion matrices hold about _CHUNK_ELEMENTS
    entries; each rho equals rho_n at its tau, bit for bit.  ``failures``
    stays empty: a point whose eigenvalues fail to converge raises
    numpy.linalg.LinAlgError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_end < tau_start:
        raise ValueError("tau_end must not precede tau_start")
    count = int(round((tau_end - tau_start) / step)) + 1
    taus = [tau_start + i * step for i in range(count) if tau_start + i * step <= tau_end + 1e-12]

    coeffs = np.array([ftau_partial_sum(t, n).coefficients for t in taus])
    chunk = max(1, _CHUNK_ELEMENTS // n ** 2)
    rhos = []
    for i in range(0, len(taus), chunk):
        rhos += np.max(np.abs(_roots(coeffs[i:i + chunk])[0]), axis=1).tolist()
    maxima = []
    for i in range(1, len(rhos) - 1):
        if rhos[i] >= rhos[i - 1] and rhos[i] > rhos[i + 1]:
            maxima.append((taus[i], rhos[i]))
    maxima.sort(key=lambda p: -p[1])

    lookup = dict(zip((round(t, 12) for t in taus), rhos))

    def gap(transform):
        worst = 0.0
        for t, r in zip(taus, rhos):
            other = lookup.get(round(transform(t), 12))
            if other is not None:
                worst = max(worst, abs(r - other))
        return worst

    return ScanResult(tuple(taus), tuple(rhos), tuple(maxima), (),
                      gap(lambda t: t + 0.5), gap(lambda t: 1.0 - t))

