import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nel.cosine
from nel.cosine import (_STRIP_DX2, _STRIP_THETA, PI, BundleMismatch, _even_strip, _tail_cut,
                        bundle_decay_fit, bundle_index, forward_values,
                        rhs_unscaled, scaling_factor, scaling_lambda, tail_coefficients)
from nel.ode import IntegratorConfig, integrate
from nel.separatrix import _strip_edges

from reference import taylor_coefficients


def test_rhs_unscaled_values():
    for a in (-3.0, 0.0, 1.7, 42.0):
        assert rhs_unscaled(0.0, a) == 1.0
    assert rhs_unscaled(7.3, 0.0) == 1.0
    assert abs(rhs_unscaled(1.0, 0.5)) < 1e-15  # cos(pi/2)
    assert -1.0 <= rhs_unscaled(2.31, 1.113) <= 1.0


def test_scaled_unscaled_trajectories_coincide():
    # With lam = (2n-1/2) pi and x = s t, y = s z for s = sqrt(2n-1/2),
    # the two initial-value problems are the same curve.
    n, a = 3, 1.0
    s = scaling_factor(n)
    lam = scaling_lambda(n)
    assert lam == pytest.approx(s * s * math.pi)
    cfg = IntegratorConfig()
    x1 = 3.0
    ty = integrate(rhs_unscaled, 0.0, a, x1, cfg)
    tz = integrate(lambda t, z: math.cos(lam * t * z), 0.0, a / s, x1 / s, cfg)
    for k in range(1, 11):
        x = x1 * k / 10
        assert abs(ty(x) - s * tz(x / s)) < 1e-9


# -- Taylor expansion ------------------------------------------------------


class PiPoly:
    """Exact element of Q[pi]: mapping power-of-pi -> Fraction, made from
    such a mapping, another PiPoly or a rational constant."""

    def __init__(self, x):
        self.d = x.d if isinstance(x, PiPoly) else x if isinstance(x, dict) else {0: Fraction(x)}

    def __add__(self, o):
        d = dict(self.d)
        for k, v in PiPoly(o).d.items():
            d[k] = d.get(k, 0) + v
        return PiPoly(d)

    def __mul__(self, o):
        d = {}
        for i, a in self.d.items():
            for j, b in PiPoly(o).d.items():
                d[i + j] = d.get(i + j, 0) + a * b
        return PiPoly(d)

    def __neg__(self):
        return self * -1

    def __truediv__(self, q):
        return self * Fraction(1, q)

    def expect(self, terms):
        want = {k: Fraction(*v) if isinstance(v, tuple) else Fraction(v)
                for k, v in terms.items()}
        got = {k: v for k, v in self.d.items() if v != 0}
        return got == {k: v for k, v in want.items() if v != 0}


PI_EXACT = PiPoly({1: Fraction(1)})


def test_taylor_exact_structure_a1():
    # Written-out coefficients through x^9 at a=1, exact in Q[pi].
    b = taylor_coefficients(PiPoly(1), 9, PI_EXACT)
    assert b[0].expect({0: 1})
    assert b[1].expect({0: 1})
    assert b[2].expect({})
    assert b[3].expect({2: (-1, 6)})
    assert b[4].expect({2: (-1, 4)})
    assert b[5].expect({4: (1, 120), 2: (-1, 10)})
    assert b[6].expect({4: (1, 18)})
    assert b[7].expect({6: (-1, 5040), 4: (2, 21)})
    assert b[8].expect({6: (-1, 180), 4: (31, 480)})
    assert b[9].expect({8: (1, 362880), 6: (-161, 6480), 4: (17, 1080)})


def test_taylor_exact_structure_a0():
    b = taylor_coefficients(PiPoly(0), 9, PI_EXACT)
    assert b[3].expect({})            # -pi^2 a^2/6 vanishes at a=0
    assert b[5].expect({2: (-1, 10)})
    assert b[9].expect({4: (17, 1080)})


def test_taylor_float_coefficients_match_formulas():
    for a in (-1.5, 0.0, 0.3, 1.0, 2.0):
        b = taylor_coefficients(a, 9)
        assert b[0] == a and b[1] == 1.0 and b[2] == 0.0
        assert b[3] == pytest.approx(-PI ** 2 * a ** 2 / 6, abs=1e-13)
        assert b[4] == pytest.approx(-PI ** 2 * a / 4, abs=1e-13)
        assert b[5] == pytest.approx(PI ** 4 * a ** 4 / 120 - PI ** 2 / 10, rel=1e-13, abs=1e-13)
        assert b[9] == pytest.approx(PI ** 8 * a ** 8 / 362880 - 161 * PI ** 6 * a ** 4 / 6480
                                     + 17 * PI ** 4 / 1080, rel=1e-12, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-0.3, max_value=0.3))
def test_taylor_eval_matches_integration(a, x):
    # 45 terms: at the domain corner (|a|=2, |x|=0.3) the expansion radius
    # shrinks to ~0.46, and 30 terms leave a ~1e-7 truncation tail.
    b = taylor_coefficients(a, 45)
    if abs(x) < 1e-3:
        x = 0.1
    ref = integrate(rhs_unscaled, 0.0, a, x).y_end
    assert abs(np.polyval(b[::-1], x) - ref) < 1e-8


# -- asymptotic tail -------------------------------------------------------


def _tail_sum(m, K, x):
    """(y, y') of the K-term tail (m + 1/2)/x + sum_{k=1..K} c_k x^-(2k+1),
    summed from the leading term on."""
    y, yp = (m + 0.5) / x, -(m + 0.5) / x ** 2
    for k, c in enumerate(tail_coefficients(m)[:K], start=1):
        y += c * x ** (-(2 * k + 1))
        yp -= (2 * k + 1) * c * x ** (-(2 * k + 2))
    return y, yp


@pytest.mark.parametrize("trunc", range(0, 6))
def test_tail_residual_order(trunc):
    # ODE residual of the K-term tail scales like x^-(2K+2): doubling x
    # from 10 to 20 divides it by ~2^(2K+2).
    def residual(x):
        y, yp = _tail_sum(3, trunc, x)
        return abs(yp - rhs_unscaled(x, y))

    expo = math.log2(residual(10.0) / residual(20.0))
    assert expo == pytest.approx(2 * trunc + 2, abs=0.5)


class _Seeded(Exception):
    """Raised in place of the backward integration, once the seed is checked."""


def test_tail_admissible_at_prescribed_starts(monkeypatch):
    import nel.separatrix as separatrix

    def seeded(*args, **kwargs):
        raise _Seeded

    # the trace checks its seed before it integrates: stop it there
    monkeypatch.setattr(separatrix, "integrate", seeded)
    theta = separatrix._STRIP_THETA
    for n in (-100_000, -1_000, *range(-3, 8), 12, 13, 44, 45, 10_000, 100_000):
        # every start is a strip start: the seed lies between w = 0 and
        # w = -theta sign(mu), outside x_c
        x_start = separatrix.backward_start(n)
        mu = 2 * n - 0.5
        w = x_start * (mu / x_start - mu / (math.pi * x_start ** 3)) - mu
        assert (-theta < w < 0) if mu > 0 else (0 < w < theta)
        assert x_start ** 2 * math.sin(math.pi * theta) >= abs(mu) - theta
        # Undecidable (outside the strip) would escape here
        with pytest.raises(_Seeded):
            separatrix.trace_separatrix_backward(n)


# -- the tail recursion and the forward cut ----------------------------------

REF_CFG = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)
GRID = [0.02 * i for i in range(1201)]      # fig1's abscissae on [0, 24]


def _transcribed_tail(m):
    """c_1..c_6 as the polynomials in mu = m + 1/2 that the recursion
    replaced, evaluated exactly in rationals with pi the float's value."""
    mu, p = Fraction(2 * m + 1, 2), Fraction(PI)
    sg = -1 if m % 2 else 1
    return (
        sg * mu / p,
        3 * mu / p ** 2,
        sg * (mu ** 3 / (6 * p) + 15 * mu / p ** 3),
        8 * mu ** 3 / (3 * p ** 2) + 105 * mu / p ** 4,
        sg * (3 * mu ** 5 / (40 * p) + 36 * mu ** 3 / p ** 3 + 945 * mu / p ** 5),
        38 * mu ** 5 / (15 * p ** 2) + 498 * mu ** 3 / p ** 4 + 10395 * mu / p ** 6,
    )


def test_tail_recursion_matches_the_transcribed_polynomials():
    # measured: at most 4.93 ulp over these m (c_5 at m = 58), 6.25 over m < 1000
    for m in (*range(0, 130), 500, 1000, 10_000, 100_000):
        for c, ref in zip(tail_coefficients(m), _transcribed_tail(m), strict=True):
            assert abs(Fraction(c) - ref) <= 7 * math.ulp(float(ref)), (m, c, ref)


# m < 0 at the odd-bundle strip starts x_s of fig2's n = 0, -1, -2, -3
@pytest.mark.parametrize("m, x", [(0, 7.2), (0, 12.0), (62, 11.18), (500, 25.1), (5000, 76.4),
                                  (-1, 7.15), (-3, 7.31), (-5, 7.47), (-7, 7.62)])
def test_tail_cut_ends_below_the_floor(m, x):
    t = _tail_cut(m, x)
    assert t[0] == m + 0.5
    assert t[1:7] == pytest.approx([c * x ** (-2 * k) for k, c in
                                    enumerate(tail_coefficients(m), start=1)], rel=1e-13)
    assert all(abs(b) < abs(a) for a, b in zip(t, t[2:]))
    assert max(map(abs, t[-2:])) < 2.0 ** -60 * abs(m + 0.5)


@pytest.mark.parametrize("m, x", [(0, 1.0), (0, 3.0), (46, 9.0), (9, 2.0)])
def test_tail_cut_stalls_before_the_floor(m, x):
    # a term stops decreasing before the terms reach 2^-60 mu
    assert _tail_cut(m, x) is None


def test_tail_cut_solves_the_equation_to_rounding():
    # from the strip stop x_s at the edge x_c to 5 x_s, for m well beyond
    # fig1's; at most 6.7 ulp measured (m = 70 at x_s).  m = -1..-7 start at
    # the odd-bundle strip starts of fig2's n = 0..-3; at most 2.5 ulp
    # measured (m = -3 at 2 x_s)
    starts = [(m, math.sqrt((m + 0.5 + _STRIP_THETA) / math.sin(PI * _STRIP_THETA) + _STRIP_DX2))
              for m in (*range(0, 130), 500, 1000, 5000)]
    starts += [(2 * n - 1, _strip_edges(n)[1]) for n in (0, -1, -2, -3)]
    for m, x_s in starts:
        for x in (f * x_s for f in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)):
            t = _tail_cut(m, x)
            y = sum(t) / x
            yp = -sum((2 * k + 1) * tk for k, tk in enumerate(t)) / x ** 2
            assert abs(yp - rhs_unscaled(x, y)) <= 16 * math.ulp(PI * x * y), (m, x)


def _strip_start(m, w, cfg=REF_CFG):
    """A rel 1e-14 run from w inside the strip just past its edge x_c, the
    tail cut at x_s = sqrt(x_0^2 + _STRIP_DX2), and the abscissae beyond it."""
    mu = m + 0.5
    x0 = 1.0001 * math.sqrt((mu + _STRIP_THETA) / math.sin(math.pi * _STRIP_THETA))
    x_s = math.sqrt(x0 * x0 + _STRIP_DX2)
    xs = np.linspace(x_s, x_s + 3.0, 61)
    return integrate(rhs_unscaled, x0, (mu + w) / x0, x_s + 3.0, cfg), _tail_cut(m, x_s), xs


@pytest.mark.parametrize("m", [0, 62, 500])
@pytest.mark.parametrize("w", [0.01, 0.2, 0.33])
def test_strip_start_is_forgotten_by_the_tail_cut(m, w):
    # any start in the strip meets the cut tail at x_s, to the reference
    # run's own accuracy (at most 2.6e-15 measured); m = 500 does not stall
    traj, t, xs = _strip_start(m, w)
    tail = np.polynomial.polynomial.polyval((xs[0] / xs) ** 2, t) / xs
    assert np.max(np.abs(tail / traj.sample(xs) - 1.0)) < 1e-14


def _recorded_forward(a, xs):
    """forward_values(a, xs) and the trajectory of its one integration."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nel.cosine, "integrate", recorded)
        ys = forward_values(a, xs)
    (traj,) = runs
    return ys, traj


@pytest.fixture(scope="module")
def fig1_curves():
    """k -> (forward_values run, its trajectory, full span at the default
    tolerances, full span at rel 1e-14) for fig1's a = 0.2 k."""
    out = {}
    for k in (1, 10, 25, 40, 50):
        a = 0.2 * k
        ys, traj = _recorded_forward(a, GRID)
        out[k] = (ys, traj, integrate(rhs_unscaled, 0.0, a, 24.0),
                  integrate(rhs_unscaled, 0.0, a, 24.0, REF_CFG))
    return out


@pytest.mark.parametrize("k", [1, 10, 25, 40, 50])
def test_forward_values_beyond_the_stop_meet_a_tight_run(k, fig1_curves):
    # 3.1e-15 at most measured, where the default-tolerance run is off by
    # 2.4e-11 to 3.6e-11
    ys, traj, full, ref = fig1_curves[k]
    assert traj.stopped and 7.2 < traj.x_end < 11.2
    beyond = np.array(GRID) > traj.x_end
    xb = np.array(GRID)[beyond]
    exact = ref.sample(xb)
    dev = np.max(np.abs(ys[beyond] / exact - 1.0))
    assert dev < 1e-14
    assert dev <= np.max(np.abs(full.sample(xb) / exact - 1.0))
    assert ys[~beyond].tolist() == full.sample(np.array(GRID)[~beyond]).tolist()


@pytest.mark.parametrize("k", [1, 10, 25, 40, 50])
def test_reference_run_stays_in_the_strip_after_its_entry(k, fig1_curves):
    # the witness outside the code under test: every rel 1e-14 step after
    # the first in the strip keeps the same m and 0 < w < 1/3
    ref = fig1_curves[k][3]
    inside = _even_strip(_STRIP_THETA)
    pts = list(zip(ref.xs, np.frombuffer(ref._ys)))
    entry = next(i for i, (x, y) in enumerate(pts) if inside(x, y))
    m = math.floor(pts[entry][0] * pts[entry][1] - 0.5)
    assert m % 2 == 0
    for x, y in pts[entry:]:
        assert 0 < x * y - (m + 0.5) < 1 / 3


def test_stalled_cut_runs_the_full_span(monkeypatch):
    # with no cut the run goes on to the end: every value is that of the
    # full span to the bit
    monkeypatch.setattr(nel.cosine, "_tail_cut", lambda m, x: None)
    ys, traj = _recorded_forward(2.0, GRID)
    assert not traj.stopped and traj.x_end == 24.0
    assert ys.tolist() == integrate(rhs_unscaled, 0.0, 2.0, 24.0).sample(GRID).tolist()


# -- properties of the flow --------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=6.0))
def test_lipschitz_in_x(a, x1, x2):
    # |rhs| <= 1 everywhere, so the solution is 1-Lipschitz.
    if abs(x1 - x2) < 1e-12:
        return
    hi = max(x1, x2, 0.1)
    traj = integrate(rhs_unscaled, 0.0, a, hi)
    assert abs(traj(x1) - traj(x2)) <= abs(x1 - x2) * (1 + 1e-9) + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=4.7))
def test_bundle_estimator_stabilizes_even(a):
    # Generic initial data joins an even-m bundle; the estimator settles by
    # x = 20.  Skip draws too close to a separatrix intercept.
    traj = integrate(rhs_unscaled, 0.0, a, 28.0)
    ms = {bundle_index(x, traj(x)) for x in (20.0, 22.0, 24.0, 26.0, 28.0)}
    if len(ms) != 1:
        return  # near-separatrix draw: estimator legitimately undecided
    m = ms.pop()
    assert m % 2 == 0


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0))
def test_reflection_symmetry(a):
    # w(x) = -y(-x) solves the same equation with w(0) = -a.
    t1 = integrate(rhs_unscaled, 0.0, a, -4.0)
    t2 = integrate(rhs_unscaled, 0.0, -a, 4.0)
    for x in (1.0, 2.5, 4.0):
        assert abs(-t1(-x) - t2(x)) < 1e-9


# -- hyperasymptotic splitting ----------------------------------------------


def test_bundle_decay_slope_is_minus_half_pi():
    # Two class-one solutions share the m=0 tail and separate by
    # ~K exp(-pi x^2 / 2); the fitted slope approaches -pi/2.
    slope = bundle_decay_fit(0.2, 0.4, (2.0, 4.0))
    assert slope == pytest.approx(-PI / 2, rel=0.01)
    assert slope < 0


def test_bundle_decay_deeper_window_converges():
    slope = bundle_decay_fit(0.2, 0.4, (3.0, 4.5))
    assert slope == pytest.approx(-PI / 2, rel=0.002)


def test_bundle_decay_identical_inputs_rejected():
    with pytest.raises(BundleMismatch):
        bundle_decay_fit(0.4, 0.4, (2.0, 4.0))


def test_bundle_decay_mismatched_bundles_rejected():
    # 0.4 joins m=0; 2.0 (two maxima) joins m=2.
    with pytest.raises(BundleMismatch):
        bundle_decay_fit(0.4, 2.0, (2.0, 4.0))


def test_bundle_decay_window_validation():
    with pytest.raises(ValueError):
        bundle_decay_fit(0.2, 0.4, (4.0, 2.0))
