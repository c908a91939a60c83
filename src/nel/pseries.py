"""Partial sums of theta-like unit-radius power series and their root moduli.

The coefficient family a_k = exp(i pi tau (k^2 + k)) has unit modulus, so
every partial sum S_n is a degree-n polynomial whose largest root modulus
rho_n probes how far outside the unit disk the section zeros reach.  Roots
are found by Aberth-Ehrlich simultaneous iteration with Newton polish.

Useful structure, exact in the phase arithmetic used here: a_k(tau + 1) =
a_k(tau) (k^2 + k is even) and a_k(1 - tau) = conj(a_k(tau)), so rho_n is
1-periodic and symmetric about tau = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


def ftau_partial_sum(tau: float, n: int) -> ComplexPolynomial:
    """S_n with coefficients exp(i pi tau (k^2 + k)), k = 0..n.

    The phase tau (k^2 + k) is reduced mod 2 in exact rational arithmetic
    before multiplying by pi, which keeps the coefficients accurate at
    k ~ 200 where the raw phase is ~1e5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = Fraction(tau)          # exact binary value of the float
    coeffs = []
    for k in range(n + 1):
        ph = t * (k * k + k) % 2
        coeffs.append(complex(math.cos(math.pi * float(ph)),
                              math.sin(math.pi * float(ph))))
    return ComplexPolynomial(tuple(coeffs))


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k elementwise over z; coeffs ascending."""
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _aberth(coeffs: np.ndarray, max_iter: int = 500) -> np.ndarray:
    """Aberth-Ehrlich iteration; coeffs ascending, leading nonzero."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    bound = max(1.0, float(np.sum(np.abs(coeffs[:-1])) / abs(lead)))
    bound = min(bound, 1.0 + float(np.max(np.abs(coeffs[:-1])) / abs(lead)))
    dcoeffs = coeffs[1:] * np.arange(1, d + 1)

    abs_coeffs = np.abs(coeffs)
    for attempt in range(4):
        ang = 2.0 * np.pi * np.arange(d) / d + 0.4 + attempt / 7.0
        radius = bound * (1.0 + 0.2 * attempt)
        z = radius * np.exp(1j * ang)
        for _ in range(max_iter):
            p = _horner(coeffs, z)
            dp = _horner(dcoeffs, z)
            w = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.1 + 0.1j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            corr = w / (1.0 - w * s)
            z = z - corr
            # a root is settled when its correction is tiny or its value sits
            # at the evaluation roundoff floor (multiple roots never push the
            # correction below ~sqrt(eps), but |p| flushes to the floor)
            az = np.abs(z)
            floor = _horner(abs_coeffs, az)
            done = (np.abs(corr) <= 1e-13 * (1.0 + az)) | (np.abs(p) <= 64 * 2.2e-16 * floor)
            if np.all(done):
                return z
        # perturbed restart
    raise NoConvergence(f"Aberth iteration failed for degree {d}")


def all_roots(poly: ComplexPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """All degree roots (as a complete multiset) plus residuals |p(z_i)|.

    Newton-polished after the simultaneous iteration; residuals are small
    against the coefficient scale sum|a_k| max(1,|z|)^n.
    """
    coeffs = np.asarray(poly.coefficients, dtype=complex)
    z = _aberth(coeffs)
    dcoeffs = coeffs[1:] * np.arange(1, poly.degree + 1)
    for _ in range(2):
        p = _horner(coeffs, z)
        dp = _horner(dcoeffs, z)
        step = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0)
        z = z - step
    return z, np.abs(_horner(coeffs, z))


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


def _scan_point(args):
    tau, n = args
    try:
        return tau, rho_n(tau, n)
    except NoConvergence:
        return tau, None


def tau_scan(tau_start: float, tau_end: float, step: float, n: int, *,
             mapper: Callable = map) -> ScanResult:
    """rho_n over a tau grid, with local maxima and symmetry gaps reported.

    Per-point failures are recorded and skipped.  ``mapper(fn, jobs)``
    evaluates the grid points and must return results in job order; the
    default builtin map runs serially, and the CLI passes its worker pool.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_end < tau_start:
        raise ValueError("tau_end must not precede tau_start")
    count = int(round((tau_end - tau_start) / step)) + 1
    grid = [tau_start + i * step for i in range(count) if tau_start + i * step <= tau_end + 1e-12]
    jobs = [(t, n) for t in grid]

    taus, rhos, failures = [], [], []
    for t, r in mapper(_scan_point, jobs):
        if r is None:
            failures.append(t)
        else:
            taus.append(t)
            rhos.append(r)
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
