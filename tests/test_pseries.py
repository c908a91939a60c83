import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nel.pseries
from nel.pseries import _contract, _polish, ftau_partial_sum, partial_sum_roots, rho_n, tau_scan

from published import RHO_MAX, RHO_TAU
from reference import companion, companion_roots

CUBIC_RHO = 1.7000157758867895        # largest root modulus of 1+iz-iz^2-z^3
DEG7_RHO = 1.7804366187866512         # ... of the tau=3/8 period numerator


def test_linear_and_quadratic_roots():
    r, res = companion_roots((1.0, 1.0))
    assert len(r) == 1 and abs(r[0] + 1.0) < 1e-12
    r, _ = companion_roots((-1.0, 0.0, 1.0))
    assert sorted(round(v.real, 10) for v in r) == [-1.0, 1.0]


def test_cubic_max_modulus_root():
    r, res = companion_roots((1, 1j, -1j, -1))
    assert max(abs(r)) == pytest.approx(CUBIC_RHO, abs=1e-10)
    assert res.max() < 1e-12
    # z = 1 is a root of the section numerator
    assert min(abs(v - 1.0) for v in r) < 1e-10


def test_ftau_quarter_coefficients():
    p = ftau_partial_sum(0.25, 3)
    expect = (1, 1j, -1j, -1)
    for got, want in zip(p, expect):
        assert abs(got - want) < 1e-14


def test_ftau_shift_by_four_flips_sign():
    # at tau = 1/4 the phase advances by an odd integer over k -> k+4
    p = ftau_partial_sum(0.25, 11)
    for k in range(8):
        assert abs(p[k + 4] + p[k]) < 1e-14


def test_ftau_unit_modulus_and_validation():
    p = ftau_partial_sum(0.3780, 60)
    assert all(abs(abs(c) - 1.0) < 1e-14 for c in p)
    with pytest.raises(ValueError):
        ftau_partial_sum(0.25, 0)


def test_rho_geometric_sum_is_one():
    for n in (7, 23, 50):
        assert rho_n(0.0, n) == pytest.approx(1.0, abs=1e-9)


# At tau = 1/2 the coefficients run 1, -1, -1, 1 with period 4, so for
# n = 3 (mod 4) S_n = (1 - z)^2 (1 + z) (1 - z^(n+1)) / (1 - z^4): every root
# lies on |z| = 1, rho = 1 exactly, and z = 1 is a double root.  An error of
# c eps per coefficient (each -1 carries sin(pi) = 1.2e-16 in its imaginary
# part, and the eigenvalue solver adds its backward error) moves a double root
# by O(sqrt(eps)), not O(eps): with S_n = (1 - z)^2 g and g(1) = (n + 1)/2 it
# moves by about sqrt(|dS_n(1)| / g(1)) <= sqrt(2 c eps).  The bound
# 8 sqrt(eps) is c = 32.
EPS = np.finfo(float).eps
DOUBLE_ROOT_TOL = 8 * math.sqrt(EPS)


def test_rho_at_half_is_one_with_a_double_root():
    for n in range(3, 500, 4):
        closed = np.tile([1.0, -1.0, -1.0, 1.0], (n + 1) // 4)
        assert np.abs(ftau_partial_sum(0.5, n) - closed).max() <= EPS
        assert abs(rho_n(0.5, n) - 1.0) <= DOUBLE_ROOT_TOL, n


def test_rho50_at_reported_maximum():
    assert rho_n(RHO_TAU, 50) == pytest.approx(RHO_MAX, abs=5e-4)


def test_deg7_numerator_rho():
    e = lambda t: cmath.exp(1j * math.pi * t)
    r, _ = companion_roots((1, e(0.75), e(0.25), 1j, -1j, -e(0.25), -e(0.75), -1))
    assert max(abs(r)) == pytest.approx(DEG7_RHO, abs=1e-10)


def test_liminf_windows():
    # min of rho_n over a finite window of degrees stands in for the liminf
    def window(tau, ns):
        return min(rho_n(tau, n) for n in ns)

    assert window(0.25, range(40, 61)) == pytest.approx(CUBIC_RHO, abs=5e-3)
    assert window(0.375, range(40, 61)) == pytest.approx(DEG7_RHO, abs=5e-3)
    assert window(0.0, (10, 20, 30)) == pytest.approx(1.0, abs=1e-9)


def test_tau_scan_structure():
    sr = tau_scan(0.0, 1.0, 0.01, 30)
    assert len(sr.taus) == 101
    assert not sr.failures
    # conjugation symmetry about tau = 1/2 is exact for this family
    assert sr.reflection_gap < 1e-9
    # ... while the half-period shift is *not* a symmetry
    assert sr.half_shift_gap > 0.01
    assert sr.maxima and sr.maxima[0][1] == max(sr.rhos)


def test_tau_scan_rejects_bad_step():
    with pytest.raises(ValueError):
        tau_scan(0.0, 1.0, -0.1, 10)


def test_tau_scan_rejects_reversed_grid():
    with pytest.raises(ValueError):
        tau_scan(0.5, 0.1, 0.01, 10)


def test_tau_scan_ignores_worker_environment(monkeypatch):
    # no environment variable changes the library call
    monkeypatch.setenv("NEL_THREADS", "abc")
    sr = tau_scan(0.0, 0.1, 0.05, 5)
    assert sr.taus == (0.0, 0.05, 0.1)
    assert sr.rhos == tuple(rho_n(t, 5) for t in sr.taus)


def test_batch_rows_equal_rows_solved_alone():
    taus = (0.0, 0.25, 0.378, 0.5, 0.61, 0.8574042765875693)
    for n in (20, 21):
        roots, residuals = nel.pseries._section_roots(taus, n)
        for t, r, res in zip(taus, roots, residuals):
            alone, alone_res = partial_sum_roots(t, n)
            assert r.tobytes() == alone.tobytes() and res.tobytes() == alone_res.tobytes()


def test_tau_scan_across_chunks_equals_points_alone(monkeypatch):
    # the chunks are counted as the scan makes them, one stacked eigenvalue
    # call each, so a change to the chunk rule cannot leave this scan in one
    eigvals, stacks = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: stacks.append(len(a)) or eigvals(a))
    sr = tau_scan(0.37, 0.43, 0.0005, 50)
    monkeypatch.undo()
    assert len(stacks) >= 3 and sum(stacks) == len(sr.taus) == 121
    assert sr.rhos == tuple(rho_n(t, 50) for t in sr.taus)


# tau = 1/2 with n = 3 (mod 4) is the one point where the two routes part:
# there S_n has near-multiple roots on |z| = 1, which neither route resolves
# past ~1e-8 (both differ from numpy.roots by as much)
NEAR_MULTIPLE_TOL = 1e-7
REFERENCE_TAUS = (0.5, 0.378, *np.random.default_rng(7).random(4), 0.0, 0.25)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 20, 21, 49, 50, 99, 100, 499, 500])
def test_rho_matches_the_companion_reference(n):
    # n = 1..4 reach the half-degree route's m = 0 and m = 1 colleague cases;
    # the companion matrix at 499 and 500 is slow, so three taus there
    for tau in REFERENCE_TAUS[:3] if n > 400 else REFERENCE_TAUS:
        pool, _ = companion_roots(ftau_partial_sum(tau, n))
        want = float(np.max(np.abs(pool)))
        near_multiple = tau == 0.5 and n % 4 == 3
        tol = NEAR_MULTIPLE_TOL if near_multiple else 1e-14
        assert abs(rho_n(tau, n) - want) <= tol * want, (tau, n)
        # and the same multiset of roots, matched greedily nearest first
        for z in partial_sum_roots(tau, n)[0]:
            j = np.argmin(np.abs(pool - z))
            assert abs(pool[j] - z) <= (NEAR_MULTIPLE_TOL if near_multiple else 1e-12), (tau, n)
            pool = np.delete(pool, j)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 50, 99])
def test_companion_roots_pair_under_the_palindromic_identity(n):
    # independent of the half-degree route: b_k = b_{n-k} makes the roots
    # of S_n closed under z -> omega / z, omega = exp(-2 pi i tau (n + 1)),
    # and for odd n puts one at z = -c, c = exp(-i pi tau (n + 1))
    for tau in np.random.default_rng(11).random(8):
        poly = ftau_partial_sum(float(tau), n)
        roots, _ = companion_roots(poly)
        omega = cmath.exp(-2j * math.pi * tau * (n + 1))
        for z in roots:
            assert np.min(np.abs(roots - omega / z)) <= 1e-10, (tau, n, z)
        if n % 2:
            c = cmath.exp(-1j * math.pi * tau * (n + 1))
            assert abs(np.polyval(poly[::-1], -c)) <= 1e-12 * (n + 1)


def _polished(coeffs):
    # (roots, residuals): _polish on one polynomial's companion eigenvalues
    c = np.array([coeffs], dtype=complex)
    return [v[0] for v in _polish(c, np.linalg.eigvals(companion(c)))]


def test_polish_keeps_roots_where_newton_overflows():
    # p' = 8e-212 at the four roots that come out as 0.0: the Newton step
    # overflows, is rejected by |p|, and no floating-point warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, res = _polished((6e-135, 8e-212, 0, 0, 1, 1))
    assert np.isfinite(roots).all() and np.isfinite(res).all()
    assert sorted(abs(roots))[-1] == pytest.approx(1.0)


# The power table s^j carries up to about 1.1 j eps of relative rounding
# (one complex product per power), the products and the sum of d + 1 terms
# about 1.8 (d + 1) eps more, and Horner's rule (numpy's polyval) about as
# much again, so the two evaluations of p = sum c_j s^j part by at most
# 4 (d + 1) eps sum |c_j| |s|^j; p' is held to the same form with k c_k for c_k.
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=1.9))
@example(500, 0, 1.9)
def test_contract_agrees_with_horner(d, seed, radius):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    s = radius * rng.random(6) ** 0.25 * np.exp(2j * math.pi * rng.random(6))
    k = np.arange(d + 1)
    slopes = np.append(k[1:] * c[1:], 0)
    p, dp = (v[0] for v in _contract(np.stack([c, slopes])[None], s[None]))
    want_p, want_dp = (np.polynomial.polynomial.polyval(s, v) for v in (c, slopes))
    powers = np.abs(s)[:, None] ** k
    bound = 4 * (d + 1) * EPS
    assert (np.abs(p - want_p) <= bound * (powers @ np.abs(c))).all()
    assert (np.abs(dp - want_dp) <= bound * (powers @ np.abs(slopes))).all()


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 50, 99])
def test_partner_roots_are_c_squared_over_the_polished_roots(n):
    # the m roots c zeta, |zeta| >= 1, are polished, their partners taken
    # as c^2 / z exactly as the pairing gives them, and each partner's
    # residual is |S_n| evaluated at it, not carried over from its root
    taus = (0.0, 0.25, 0.378, 0.5, 0.8574042765875693)
    m = n // 2
    roots, residuals = nel.pseries._section_roots(taus, n)
    coeffs = np.array([ftau_partial_sum(t, n) for t in taus])
    c = np.array([nel.pseries._unit_phases(t, (-(n + 1),)) for t in taus])
    # the polished half lies outside the unit circle, up to the O(sqrt(eps))
    # split of the double root at tau = 1/2
    assert (np.abs(roots[:, :m]) >= 1 - DOUBLE_ROOT_TOL).all()
    assert roots[:, m:2 * m].tobytes() == (c * c / roots[:, :m]).tobytes()
    at_partners = np.abs(_contract(coeffs[:, None], roots[:, m:2 * m])[0])
    assert residuals[:, m:2 * m].tobytes() == at_partners.tobytes()


def test_scan_power_tables_stay_within_the_chunk_bound(monkeypatch):
    # every table a scan contracts holds rows x (m + odd) x (n + 1) entries
    # at most _CHUNK_ELEMENTS, for degrees whose one row fits
    contract, sizes = nel.pseries._contract, []
    monkeypatch.setattr(nel.pseries, "_contract",
                        lambda a, s: sizes.append(s.size * a.shape[-1]) or contract(a, s))
    for n in (20, 50, 51, 100):
        sizes.clear()
        sr = tau_scan(0.3, 0.45, 0.0005, n)
        assert len(sizes) >= 6 and max(sizes) <= nel.pseries._CHUNK_ELEMENTS, n
        m, odd = divmod(n, 2)
        assert sum(sizes) == 3 * len(sr.taus) * (m + odd) * (n + 1)


def test_tau_scan_rejects_bad_degree():
    with pytest.raises(ValueError):
        tau_scan(0.0, 1.0, 0.1, 0)


sections = st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.integers(min_value=1, max_value=60))


@settings(max_examples=40, deadline=None)
@given(sections)
def test_vieta_checks(section):
    roots, _ = partial_sum_roots(*section)
    a, n = ftau_partial_sum(*section), section[1]
    assert len(roots) == n
    s = complex(np.sum(roots))
    p = complex(np.prod(roots))
    assert abs(s - (-a[-2] / a[-1])) < 1e-8 * (1 + abs(s))
    want = (-1) ** n * a[0] / a[-1]
    assert abs(p - want) < 1e-8 * (1 + abs(p))


@settings(max_examples=40, deadline=None)
@given(sections)
def test_residual_bound(section):
    roots, res = partial_sum_roots(*section)
    total = sum(abs(c) for c in ftau_partial_sum(*section))
    for z, r in zip(roots, res):
        assert r <= 1e-10 * total * max(1.0, abs(z)) ** section[1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=12),
       st.floats(min_value=0.0, max_value=2.0))
# four roots within 1e-33 of 0 come out as 0.0, where p' = 8e-212: a Newton
# step there overflows, so the polish must keep only steps that lower |p|
@example([6e-135, 8e-212, 0.0, 0.0, 1.0, 1.0], 0.0)
def test_conjugation_and_scale_invariance(reals, phase):
    # _polish keeps a real polynomial's companion roots closed under
    # conjugation, and their moduli under a rotation of the coefficients
    if abs(reals[-1]) < 1e-3:
        reals[-1] = 1.0
    roots, _ = _polished(reals)
    # the multiset is closed under conjugation: greedy nearest matching
    pool = list(np.conj(roots))
    for z in roots:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        assert abs(pool[j] - z) < 1e-8
        pool.pop(j)
    # rotating every coefficient by a unit scalar leaves roots unchanged
    w = cmath.exp(1j * math.pi * phase)
    r2, _ = _polished([w * c for c in reals])
    m1 = sorted(abs(z) for z in roots)
    m2 = sorted(abs(z) for z in r2)
    assert max(abs(a - b) for a, b in zip(m1, m2)) < 1e-10
