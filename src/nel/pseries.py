"""Partial sums of theta-like unit-radius power series and their root moduli.

The coefficient family a_k = exp(i pi tau (k^2 + k)) has unit modulus, so
every partial sum S_n is a degree-n polynomial whose largest root modulus
rho_n probes how far outside the unit disk the section zeros reach.

The half-degree route.  With c = exp(-i pi tau (n + 1)) and z = c zeta,
S_n(c zeta) = sum_k b_k zeta^k with b_k = exp(i pi tau k (k - n)), and
k (k - n) is the same integer for k and n - k, so b_k = b_{n-k} exactly:
the roots come in pairs zeta, 1/zeta.  For n = 2m,

    zeta^-m S_n(c zeta) = b_m + 2 sum_{j=1..m} b_{m-j} T_j(x),
    x = (zeta + 1/zeta) / 2,

with T_j the Chebyshev polynomials, whose m roots x are the eigenvalues of
an m x m colleague matrix (I. J. Good, Q. J. Math. 12, 1961).  For
n = 2m + 1 the terms k and n - k cancel at zeta = -1; the quotient by
zeta + 1, u_0 = b_0 and u_k = b_k - u_{k-1}, is palindromic of degree 2m
and is treated the same way.  Each x gives zeta = x +- sqrt(x^2 - 1), the
sign taken so that |zeta| >= 1, and the root z = c zeta; two guarded Newton
steps on S_n polish these m roots, plus z = -c for odd n.  The other m
roots are their partners z' = c^2 / z = c / zeta under the exact pairing,
left unpolished; partial_sum_roots evaluates each partner's residual
|S_n(z')| at it, once, and rho_n and tau_scan, which read no residuals,
skip that.  The three share this solver, one LAPACK call for a stack of
rows, a quarter of the matrix entries of the degree-n companion matrix.

Each Newton pass evaluates S_n and S_n' by one contraction: the power table
z^0..z^n of every polished root, one cumprod along its last axis, contracted
with the coefficients a_k and the slopes k a_k by one einsum.  On the short
root arrays of one request this costs a few numpy calls where Horner's rule
costs 4 (n + 1).  A tau scan's chunk holds at most _CHUNK_ELEMENTS table
entries.

Useful structure, exact in the phase arithmetic used here: a_k(tau + 1) =
a_k(tau) (k^2 + k is even) and a_k(1 - tau) = conj(a_k(tau)), so rho_n is
1-periodic and symmetric about tau = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ftau_partial_sum",
    "partial_sum_roots",
    "rho_n",
    "tau_scan",
    "ScanResult",
]


# A tau scan builds at most this many power-table entries at a time:
# rows x (m + odd) x (n + 1) for n = 2m + odd.
_CHUNK_ELEMENTS = 1 << 15


def _unit_phases(tau: float, ks) -> list[complex]:
    """exp(i pi tau k) for each integer k in ks.

    The phase tau k is reduced mod 2 exactly, in integers over the binary
    denominator of tau, before multiplying by pi, which keeps the values
    accurate at k ~ 1e5.
    """
    num, den = tau.as_integer_ratio()    # exact binary value of the float
    period, pi, cos, sin = 2 * den, math.pi, math.cos, math.sin
    return [complex(cos(p), sin(p)) for p in [pi * (num * k % period / den) for k in ks]]


def ftau_partial_sum(tau: float, n: int) -> tuple[complex, ...]:
    """The coefficients exp(i pi tau (k^2 + k)), k = 0..n, of S_n in
    ascending powers, each phase reduced mod 2 exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(_unit_phases(tau, (k * k + k for k in range(n + 1))))


def _contract(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row's polynomials at that row's points, shape (j, rows, count).

    coeffs is a (rows, j, d + 1) array of j ascending coefficient vectors
    per row and s a (rows, count) array of points.  The power table s^0..s^d
    of every point is one cumprod along its last axis, contracted with all
    j vectors by one einsum; a row gets the same bits in any batch.
    """
    table = np.empty((*s.shape, coeffs.shape[-1]), dtype=complex)
    table[..., 0] = 1.0
    table[..., 1:] = s[..., None]
    np.cumprod(table, axis=-1, out=table)
    return np.einsum("rnk,rjk->jrn", table, coeffs)


def _polish(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, residuals |p(z)|) after two Newton steps on each row's polynomial,
    each kept only where it lowers |p|.

    coeffs is a (rows, d + 1) array of ascending coefficients and z holds
    each row's roots.  Each pass evaluates p and p' = sum k c_k z^(k-1) by
    one _contract, the slopes k c_k padded with a zero to length d + 1.
    """
    d = coeffs.shape[1] - 1
    slopes = np.zeros_like(coeffs)
    slopes[:, :d] = coeffs[:, 1:] * np.arange(1, d + 1)
    pair = np.stack([coeffs, slopes], axis=1)
    # at a multiple root p' = 0 and the step overflows; |p| then rejects it
    with np.errstate(all="ignore"):
        p, dp = _contract(pair, z)
        for vectors in (2, 1):              # no p' is needed after the last step
            trial = z - p / dp
            q, *dq = _contract(pair[:, :vectors], trial)
            lower = np.abs(q) < np.abs(p)
            z, p = np.where(lower, trial, z), np.where(lower, q, p)
            if dq:
                dp = np.where(lower, dq[0], dp)
    return z, np.abs(p)


def _polished_roots(taus, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coeffs, roots, residuals) of the partial sums S_n at each tau, by the
    half-degree route of the module docstring.

    roots is (len(taus), n): the polished roots c zeta, |zeta| >= 1, then
    their partners c^2 / z, then the polished -c for odd n.  residuals holds
    |S_n(z)| at the polished roots only, (len(taus), m + odd).  One LAPACK
    call solves the stack of colleague matrices.  Every operation acts on
    one row at a time, so a row gets the same bits in any batch.
    """
    coeffs = np.array([ftau_partial_sum(t, n) for t in taus])
    m, odd = divmod(n, 2)
    # b_0..b_m and c = exp(-i pi tau (n + 1)), reduced together
    ks = [k * (k - n) for k in range(m + 1)] + [-(n + 1)]
    phases = np.array([_unit_phases(t, ks) for t in taus])
    b, c = phases[:, :-1], phases[:, -1:]
    if odd:
        # u_k = b_k - u_{k-1} as one sequential sum; the sign flips are exact
        sign = (-1.0) ** np.arange(m + 1)
        b = sign * np.cumsum(sign * b, axis=1)
    rows = len(taus)
    x = np.empty((rows, 0), dtype=complex)
    if m:
        # the colleague matrix of sum_j alpha_j T_j(x), alpha_0 = b_m and
        # alpha_j = 2 b_{m-j}: row 0 from x T_0 = T_1, rows j from x T_j =
        # (T_{j-1} + T_{j+1}) / 2, and the last row closed by T_m = -sum_{j<m}
        # alpha_j T_j / alpha_m; for m = 1 that row is row 0
        alpha = np.concatenate([b[:, m:], 2 * b[:, m - 1::-1]], axis=1)
        colleague = np.zeros((rows, m, m), dtype=complex)
        i = np.arange(m - 1)
        colleague[:, i, i + 1] = colleague[:, i + 1, i] = 0.5
        colleague[:, 0, 1:2] = 1.0
        colleague[:, -1, :] -= (0.5 if m > 1 else 1.0) * alpha[:, :m] / alpha[:, m:]
        x = np.linalg.eigvals(colleague)
    s = np.sqrt((x - 1) * (x + 1))
    zeta = x + np.where((x.conj() * s).real < 0, -s, s)       # |zeta| >= 1
    z, res = _polish(coeffs, c * np.concatenate([zeta, -np.ones((rows, odd))], axis=1))
    return coeffs, np.concatenate([z[:, :m], c * c / z[:, :m], z[:, m:]], axis=1), res


def _section_roots(taus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(roots, residuals |S_n(z_i)|), each (len(taus), n), of the partial
    sums S_n at each tau; each partner's residual is evaluated at it, once."""
    coeffs, roots, res = _polished_roots(taus, n)
    m = n // 2
    partner_res = np.abs(_contract(coeffs[:, None], roots[:, m:2 * m])[0])
    return roots, np.concatenate([res[:, :m], partner_res, res[:, m:]], axis=1)


def partial_sum_roots(tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n roots of the degree-n partial sum plus residuals |S_n(z_i)|,
    by the half-degree route.

    At tau = 1/2 with n = 3 (mod 4), S_n = (1 - z)^2 (1 + z) (1 - z^(n+1))
    / (1 - z^4) has a double root at z = 1, returned, as by the companion
    matrix, as a pair about 1e-8 = O(sqrt(eps)) away from it."""
    roots, residuals = _section_roots([tau], n)
    return roots[0], residuals[0]


def rho_n(tau: float, n: int) -> float:
    """Largest root modulus of the degree-n partial sum.

    At tau = 1/2 with n = 3 (mod 4) every root lies on |z| = 1 and rho = 1
    exactly, but z = 1 is a double root, so the value reads 1 + 3e-9 to
    1 + 8e-9 (n = 3, 7, 11, 99, 499): only about 8 digits hold there."""
    return float(np.max(np.abs(_polished_roots([tau], n)[1])))


@dataclass(frozen=True)
class ScanResult:
    taus: tuple[float, ...]
    rhos: tuple[float, ...]
    maxima: tuple[tuple[float, float], ...]   # interior local maxima, best first
    # always empty; read by perfbench/tracer.py's _HOOKS and, as the "failures"
    # key of the `pseries scan` summary that cli._cmd_pseries writes, checked
    # by perfbench/checks.py
    failures: tuple[float, ...]
    half_shift_gap: float                     # sup |rho(tau) - rho(tau + 1/2)|
    reflection_gap: float                     # sup |rho(tau) - rho(1 - tau)|


def tau_scan(tau_start: float, tau_end: float, step: float, n: int) -> ScanResult:
    """rho_n over a tau grid, with local maxima and symmetry gaps reported.

    Serial, one stacked eigenvalue call per chunk of grid points, sized so
    the polish's (points, m + odd, n + 1) power tables, n = 2m + odd, hold
    at most _CHUNK_ELEMENTS entries (one point when a single table holds
    more); each rho equals rho_n at its tau, bit for bit.
    ``failures`` stays empty: a point whose eigenvalues fail to converge
    raises numpy.linalg.LinAlgError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_end < tau_start:
        raise ValueError("tau_end must not precede tau_start")
    if n < 1:
        raise ValueError("n must be >= 1")
    count = int(round((tau_end - tau_start) / step)) + 1
    taus = [tau_start + i * step for i in range(count) if tau_start + i * step <= tau_end + 1e-12]

    m, odd = divmod(n, 2)
    chunk = max(1, _CHUNK_ELEMENTS // ((m + odd) * (n + 1)))
    rhos = []
    for i in range(0, len(taus), chunk):
        rhos += np.max(np.abs(_polished_roots(taus[i:i + chunk], n)[1]), axis=1).tolist()
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

