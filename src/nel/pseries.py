"""Partial sums of theta-like unit-radius power series and their root moduli.

The coefficient family a_k = exp(i pi tau (k^2 + k)) has unit modulus, so
every partial sum S_n is a degree-n polynomial whose largest root modulus
rho_n probes how far outside the unit disk the section zeros reach.  Roots
are found by one batched Aberth-Ehrlich simultaneous iteration with Newton
polish: a single polynomial is a batch of one, and a tau scan solves its
grid a chunk of rows at a time, serially.

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
    "NoConvergence",
    "ftau_partial_sum",
    "all_roots",
    "rho_n",
    "tau_scan",
    "ScanResult",
    "liminf_window",
]


# A tau scan solves this many (rows x degree^2) root differences at a time.
_CHUNK_ELEMENTS = 1 << 15


class NoConvergence(RuntimeError):
    """Simultaneous iteration failed to settle after restarts."""


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


def _aberth(coeffs: np.ndarray, max_iter: int = 500):
    """(roots, residuals |p(z_i)|, converged) for each row of a (rows, d + 1)
    array of ascending coefficients with nonzero leading entries.

    Aberth-Ehrlich from a circle of radius min(max(1, B), 1 + M), B and M
    the sum and max of |a_k / a_d| over k < d, with four perturbed starts of
    max_iter iterations each, then two Newton steps.  The live roots form one
    flat vector and each coefficient is a column repeated once per root, so
    a row gets the same bits in any batch; a row leaves once its roots
    settle.  Rows that never settle stay NaN.
    """
    rows, d = coeffs.shape[0], coeffs.shape[1] - 1
    series = (coeffs, coeffs[:, 1:] * np.arange(1, d + 1), np.abs(coeffs))
    # per-row sums keep a single row's pairwise summation order, and the
    # scalar abs of the leading coefficient its last bit
    bound = np.array([min(max(1.0, float(np.sum(a[:-1]) / abs(c))),
                          1.0 + float(np.max(a[:-1]) / abs(c)))
                      for a, c in zip(series[2], coeffs[:, -1])])

    def columns(live):
        return [np.repeat(s[live], d, axis=0).T.copy() for s in series]

    def horner(cols, x):
        acc = np.zeros_like(x)
        for c in cols[::-1]:
            acc = acc * x + c
        return acc

    def newton(cols, dcols, x, fallback):
        """p(x) and the Newton step p/p', or fallback where p' = 0."""
        p, dp = horner(cols, x), horner(dcols, x)
        return p, np.where(dp != 0, p / np.where(dp == 0, 1, dp), fallback)

    roots = np.full((rows, d), np.nan, dtype=complex)
    ok = np.zeros(rows, dtype=bool)
    diag = np.arange(d)
    for attempt in range(4):
        live = np.flatnonzero(~ok)
        if not live.size:
            break
        ang = 2.0 * np.pi * np.arange(d) / d + 0.4 + attempt / 7.0
        z = ((bound[live] * (1.0 + 0.2 * attempt))[:, None] * np.exp(1j * ang)).ravel()
        cols, dcols, acols = columns(live)
        for _ in range(max_iter):
            p, w = newton(cols, dcols, z, 0.1 + 0.1j)
            zr = z.reshape(-1, d)
            diff = zr[:, :, None] - zr[:, None, :]
            diff[:, diag, diag] = np.inf
            corr = w / (1.0 - w * np.sum(1.0 / diff, axis=2).ravel())
            z = z - corr
            # a root is settled when its correction is tiny or its value sits
            # at the evaluation roundoff floor (multiple roots never push the
            # correction below ~sqrt(eps), but |p| flushes to the floor)
            az = np.abs(z)
            done = (np.abs(corr) <= 1e-13 * (1.0 + az)) | (np.abs(p) <= 64 * 2.2e-16 * horner(acols, az))
            settled = done.reshape(-1, d).all(axis=1)
            if settled.any():
                roots[live[settled]] = z.reshape(-1, d)[settled]
                ok[live[settled]] = True
                live, z = live[~settled], z.reshape(-1, d)[~settled].ravel()
                if not live.size:
                    break
                cols, dcols, acols = columns(live)

    live = np.flatnonzero(ok)
    z, (cols, dcols, _) = roots[live].ravel(), columns(live)
    for _ in range(2):
        z = z - newton(cols, dcols, z, 0)[1]
    roots[live] = z.reshape(-1, d)
    residuals = np.full((rows, d), np.nan)
    residuals[live] = np.abs(horner(cols, z)).reshape(-1, d)
    return roots, residuals, ok


def all_roots(poly: ComplexPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """All degree roots (as a complete multiset) plus residuals |p(z_i)|.

    Newton-polished after the simultaneous iteration; residuals are small
    against the coefficient scale sum|a_k| max(1,|z|)^n.
    """
    roots, residuals, ok = _aberth(np.asarray([poly.coefficients], dtype=complex))
    if not ok[0]:
        raise NoConvergence(f"Aberth iteration failed for degree {poly.degree}")
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
    failures: tuple[float, ...]               # tau values that failed to converge
    half_shift_gap: float                     # sup |rho(tau) - rho(tau + 1/2)|
    reflection_gap: float                     # sup |rho(tau) - rho(1 - tau)|


def tau_scan(tau_start: float, tau_end: float, step: float, n: int) -> ScanResult:
    """rho_n over a tau grid, with local maxima and symmetry gaps reported.

    Serial, one batched root-finder call per chunk of grid points, sized so
    the (points, n, n) root-difference array holds about _CHUNK_ELEMENTS;
    each rho equals rho_n at its tau, bit for bit.  Points that fail to
    converge are listed in ``failures`` and skipped.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_end < tau_start:
        raise ValueError("tau_end must not precede tau_start")
    count = int(round((tau_end - tau_start) / step)) + 1
    grid = [tau_start + i * step for i in range(count) if tau_start + i * step <= tau_end + 1e-12]

    coeffs = np.array([ftau_partial_sum(t, n).coefficients for t in grid])
    chunk = max(1, _CHUNK_ELEMENTS // n ** 2)
    rho, ok = [], []
    for i in range(0, len(grid), chunk):
        roots, _, settled = _aberth(coeffs[i:i + chunk])
        rho += np.max(np.abs(roots), axis=1).tolist()
        ok += settled.tolist()
    taus = [t for t, good in zip(grid, ok) if good]
    rhos = [r for r, good in zip(rho, ok) if good]
    failures = [t for t, good in zip(grid, ok) if not good]
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

    return ScanResult(tuple(taus), tuple(rhos), tuple(maxima), tuple(failures),
                      gap(lambda t: t + 0.5), gap(lambda t: 1.0 - t))


def liminf_window(tau: float, n_window) -> float:
    """min of rho_n over the window: a finite-window stand-in for the
    liminf over all section degrees (labelled approximation)."""
    ns = list(n_window)
    if not ns:
        raise ValueError("window must be nonempty")
    return min(rho_n(tau, n) for n in ns)
