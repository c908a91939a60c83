"""The model equation y'(x) = cos(pi*x*y), y(0) = a, and its asymptotics.

Covers the scaled form z'(t) = cos(lambda*t*z), the large-x tail

    y(x) ~ (m + 1/2)/x + sum_k c_k x^(-2k-1)

whose odd-m members are the separatrices, generated term by term by one
recursion (``_tail_series``) and cut where its terms stop decreasing, the
forward solution read from that tail once an even-m bundle has trapped it
(``forward_values``), and the exponentially small splitting between two
solutions sharing an even-m tail, which decays like exp(-pi x^2 / 2).
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .extrapolate import _ls_slope
from .ode import IntegratorConfig, integrate

__all__ = [
    "PI",
    "BundleMismatch",
    "Underflow",
    "rhs_unscaled",
    "scaling_lambda",
    "scaling_factor",
    "tail_coefficients",
    "bundle_index",
    "forward_values",
    "bundle_decay_fit",
]

PI = math.pi
# Width in w of the even- and odd-bundle strips that forward runs
# (forward_values) and backward traces (separatrix.backward_start) rely on,
# the e-folds by which a strip contracts the difference of two solutions in
# it, and the growth of x^2 that takes: the rate is at least pi x cos(pi theta).
_STRIP_THETA = 1.0 / 3.0
_STRIP_EFOLDS = 40.0
_STRIP_DX2 = 2 * _STRIP_EFOLDS / (PI * math.cos(PI * _STRIP_THETA))


class BundleMismatch(ValueError):
    """The two solutions do not share an even-m tail."""


class Underflow(ArithmeticError):
    """Solution difference underflowed before the window end."""


def rhs_unscaled(x: float, y: float) -> float:
    """Slope field cos(pi*x*y); bounded in [-1, 1], equals 1 on both axes."""
    return math.cos(PI * x * y)


def scaling_lambda(n: int) -> float:
    """Frequency lam = (2n - 1/2)*pi of the n-th scaled separatrix problem."""
    return (2 * n - 0.5) * PI


def scaling_factor(n: int) -> float:
    """sqrt(2n - 1/2); both variables scale by it: x = s*t, y = s*z."""
    return math.sqrt(2 * n - 0.5)


# -- large-x asymptotic tail ---------------------------------------------

def _tail_series(m: int, u: float = 1.0):
    """The terms c_0, c_1 u, c_2 u^2, ... of the m-th tail, without end.

    With y = P(u)/x, P = sum c_k u^k, u = x^-2 and sigma = (-1)^m, the
    equation reads sigma sin(pi Q) = u P + 2 u^2 P', where Q = P - c_0 and
    c_0 = m + 1/2, because cos(pi c_0 + pi Q) = -sigma sin(pi Q).  So the
    u-series S of sin(pi Q) has S_j = sigma (2j - 1) c_{j-1}.  With C the
    u-series of cos(pi Q) (C_0 = 1) and q_i = i pi c_i, differentiating in u
    gives j S_j = sum_{i=1..j} q_i C_{j-i} and j C_j = -sum_{i=1..j} q_i S_{j-i};
    the first, solved for c_j, is
        c_j = [sigma (2j - 1) c_{j-1} - (1/j) sum_{i<j} i pi c_i C_{j-i}] / pi.
    Both sums are homogeneous in u, so the recursion runs on the terms
    themselves (c_j u^j in place of c_j, C_j u^j in place of C_j, and an
    extra factor u on the sigma term); u = 1 gives the coefficients.
    """
    sg = -1.0 if m % 2 else 1.0
    c = [m + 0.5]
    q, cs, sn = [0.0], [1.0], [0.0]
    yield c[0]
    for j in itertools.count(1):
        s_j = sg * (2 * j - 1) * u * c[j - 1]
        c.append((s_j - sum(map(operator.mul, q[1:j], cs[j - 1:0:-1])) / j) / PI)
        q.append(j * PI * c[j])
        sn.append(s_j)
        cs.append(-sum(map(operator.mul, q[1:], sn[j - 1::-1])) / j)
        yield c[j]


def tail_coefficients(m: int) -> tuple[float, ...]:
    """Correction coefficients c_1..c_6 of the m-th tail.

    From the recursion of ``_tail_series``; c_k is a polynomial in
    mu = m + 1/2 of degree 2 floor((k - 1)/2) + 1, signed (-1)^m for odd k.
    """
    return tuple(itertools.islice(_tail_series(m), 1, 7))


def _tail_cut(m: int, x: float) -> list[float] | None:
    """The terms t_0..t_J, t_k = c_k x^-2k, of the m-th tail cut for x, or None.

    Terms are taken while each is smaller in size than the previous term of
    its parity (the odd-k and even-k coefficients grow at different rates).
    The cut ends once the last term of each parity is below 2^-60 |mu|; it is
    None when a term stops decreasing first (or is not finite).  At x' > x
    the terms are t_k (x/x')^2k, so each shrinks faster than the one two
    before it and the cut holds there too.
    """
    floor = 2.0 ** -60 * abs(m + 0.5)
    t = []
    for k, tk in enumerate(_tail_series(m, x ** -2)):
        t.append(tk)
        if k >= 2:
            if not abs(tk) < abs(t[k - 2]):
                return None
            if abs(tk) < floor and abs(t[k - 1]) < floor:
                return t


def bundle_index(x: float, y: float) -> int:
    """Estimator round(x*y - 1/2) of the bundle index m; even off-separatrix."""
    return round(x * y - 0.5)


def _even_strip(theta: float):
    """Test (x, y) -> bool of the even-bundle strip of width theta in w.

    True where m = floor(x*y - 1/2) >= 0 is even, 0 < w = x*y - (m + 1/2)
    < theta and x^2 sin(pi theta) > m + 1/2 + theta, for 0 < theta <= 1/2.
    No forward solution leaves that strip, and y' < 0 in it.  Proof, with
    mu = m + 1/2:
    - for even m the equation gives y' = -sin(pi w) and
      w' = (mu + w)/x - x sin(pi w);
    - at w = 0, w' = mu/x > 0; at w = theta, w' < 0 once
      x^2 sin(pi theta) > mu + theta, which stays true as x grows.
    Inside it df/dy = -pi x cos(pi w) <= -pi x cos(pi theta), so two
    solutions in it approach each other at least that fast.
    """
    s, offset = math.sin(PI * theta), 0.5 + theta

    def inside(x: float, y: float) -> bool:
        u = x * y - 0.5
        m = math.floor(u)
        w = u - m
        return m >= 0 and m % 2 == 0 and 0.0 < w < theta and x * x * s > m + offset
    return inside


# The strip of width 1/2: 0 < w < 1/2 and x^2 > m + 1 (sin(pi/2) = 1.0 and
# 0.5 + 0.5 = 1.0 exactly), where no maximum can follow.  Not in __all__: it
# runs once per accepted step, and perfbench/tracer.py opens a span for every
# exported function.
trapped_in_even_bundle = _even_strip(0.5)


def forward_values(a: float, xs) -> np.ndarray:
    """y at the abscissae xs in [0, max(xs)] of the solution with y(0) = a.

    One Dormand-Prince run toward max(xs) at the default tolerances, which
    stops once the strip of width _STRIP_THETA (``_even_strip``) has made
    its start irrelevant.  A run that enters the strip at x_0 has forgotten
    its start to e^-K, K = _STRIP_EFOLDS, by x_s^2 = x_0^2 + _STRIP_DX2: it
    stops at its first step at or beyond x_s.  Abscissae up to the stop read
    its dense output, the same bits as a run over the full span; those
    beyond it read the bundle's tail cut for x_s (``_tail_cut``), evaluated
    as sum t_k (x_s/x)^2k / x.  Where the cut stalls the run goes on to
    max(xs).
    """
    xs = np.asarray(xs, dtype=float)
    inside = _even_strip(_STRIP_THETA)
    cut = []                       # [x_s, terms] once the run is in the strip

    def stop(x: float, y: float) -> bool:
        if cut:
            return x >= cut[0]
        if inside(x, y):
            x_s = math.sqrt(x * x + _STRIP_DX2)
            terms = _tail_cut(math.floor(x * y - 0.5), x_s)
            cut.extend((x_s, terms) if terms else (math.inf, None))
        return False

    traj = integrate(rhs_unscaled, 0.0, a, float(xs.max()), stop_when=stop)
    beyond = xs > traj.x_end
    ys = np.empty_like(xs)
    ys[~beyond] = traj.sample(xs[~beyond])
    if beyond.any():
        x_s, terms = cut
        xb = xs[beyond]
        ys[beyond] = np.polynomial.polynomial.polyval((x_s / xb) ** 2, terms) / xb
    return ys


# -- hyperasymptotic splitting -------------------------------------------

def bundle_decay_fit(a1: float, a2: float, x_window: tuple[float, float]) -> float:
    """Least-squares slope of ln|y1 - y2| against x^2 at 41 evenly spaced
    points of the window, both ends included.

    Two solutions in the same even-m bundle separate only through terms
    beyond every order of the tail.  Their difference obeys the linearised
    equation d' = -pi x sin(pi x y) d, and on an even-m bundle pi x y tends
    to pi (m + 1/2), where the sine is 1; so |y1 - y2| ~ K exp(-pi x^2 / 2)
    and the fitted slope is -pi/2.  Samples whose difference falls below
    1e-12 carry integration noise rather than signal and are
    excluded; at the tolerances used (1e-12 relative, 1e-14 absolute) the
    floor is reached around |y1 - y2| ~ 1e-12, well before the exact
    difference underflows.

    Raises BundleMismatch for identical inputs or when the two solutions
    settle on different (or odd) bundles, and Underflow when the window
    retains fewer than 6 usable samples.
    """
    if a1 == a2:
        raise BundleMismatch("identical initial values give zero difference")
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    x_lo, x_hi = x_window
    if not 0 < x_lo < x_hi:
        raise ValueError("window must satisfy 0 < x_lo < x_hi")
    t1 = integrate(rhs_unscaled, 0.0, a1, x_hi, cfg)
    t2 = integrate(rhs_unscaled, 0.0, a2, x_hi, cfg)
    m1 = bundle_index(x_hi, t1.y_end)
    m2 = bundle_index(x_hi, t2.y_end)
    if m1 != m2 or m1 % 2 != 0:
        raise BundleMismatch(f"bundle indices {m1} and {m2}")

    xs = [x_lo + (x_hi - x_lo) * i / 40 for i in range(41)]
    xsq, logd = [], []
    for x, d in zip(xs, abs(t1.sample(xs) - t2.sample(xs)).tolist()):
        if d < 1e-300:
            raise Underflow(f"difference underflowed at x={x}")
        if d < 1e-12:
            continue
        xsq.append(x * x)
        logd.append(math.log(d))
    if len(xsq) < 6:
        raise Underflow("fewer than 6 samples above the noise floor")
    return _ls_slope(xsq, logd)
