"""The model equation y'(x) = cos(pi*x*y), y(0) = a, and its asymptotics.

Covers the scaled form z'(t) = cos(lambda*t*z), the Taylor expansion of the
solution at the origin, the large-x tail

    y(x) ~ (m + 1/2)/x + sum_k c_k x^(-2k-1)

whose odd-m members are the separatrices, and the exponentially small
splitting between two solutions sharing an even-m tail, which decays like
exp(-pi x^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .extrapolate import _ls_slope
from .ode import IntegratorConfig, integrate
from .pseries import _horner

__all__ = [
    "PI",
    "AsymptoticTail",
    "TaylorSeries",
    "TailNotAsymptotic",
    "BundleMismatch",
    "Underflow",
    "rhs_unscaled",
    "rhs_scaled",
    "scaling_lambda",
    "scaling_factor",
    "taylor_coefficients",
    "taylor_eval",
    "tail_coefficients",
    "asymptotic_tail_eval",
    "bundle_index",
    "bundle_decay_fit",
]

PI = math.pi


class TailNotAsymptotic(ValueError):
    """Tail terms are not decreasing at the requested x."""


class BundleMismatch(ValueError):
    """The two solutions do not share an even-m tail."""


class Underflow(ArithmeticError):
    """Solution difference underflowed before the window end."""


def rhs_unscaled(x: float, y: float) -> float:
    """Slope field cos(pi*x*y); bounded in [-1, 1], equals 1 on both axes."""
    return math.cos(PI * x * y)


def rhs_scaled(t: float, z: float, lam: float) -> float:
    """Slope field cos(lam*t*z) of the scaled equation."""
    return math.cos(lam * t * z)


def scaling_lambda(n: int) -> float:
    """Frequency lam = (2n - 1/2)*pi of the n-th scaled separatrix problem."""
    return (2 * n - 0.5) * PI


def scaling_factor(n: int) -> float:
    """sqrt(2n - 1/2); both variables scale by it: x = s*t, y = s*z."""
    return math.sqrt(2 * n - 0.5)


# -- Taylor expansion at the origin -------------------------------------

@dataclass(frozen=True)
class TaylorSeries:
    """Coefficients b_0..b_N of y(x) = sum b_n x^n with y(0) = a.

    Always b_0 = a, b_1 = 1, b_2 = 0; the rest follow from the equation
    order by order.
    """

    a: float
    coefficients: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def taylor_coefficients(a: float, n_terms: int) -> TaylorSeries:
    """Expand the solution with y(0) = a through x^n_terms.

    Uses the auxiliary closure c = cos(pi*x*y), s = sin(pi*x*y): with
    u = pi*x*y one has c' = -s u', s' = c u', y' = c, which turns into a
    coefficient recurrence with Cauchy products.  Works over any field,
    so tests can rerun it in exact rational arithmetic.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    b = [a]          # y
    cc = [1.0]       # cos(pi x y); u(0)=0
    ss = [0.0]       # sin(pi x y)
    for n in range(n_terms):
        b.append(cc[n] / (n + 1))
        # u' = pi * d(xy)/dx has coefficients pi*(j+1)*b_j at x^j
        sc = 0.0
        ssum = 0.0
        for j in range(n + 1):
            w = PI * (j + 1) * b[j]
            sc += ss[n - j] * w
            ssum += cc[n - j] * w
        cc.append(-sc / (n + 1))
        ss.append(ssum / (n + 1))
    return TaylorSeries(a, tuple(b))


def taylor_eval(series: TaylorSeries, x: float) -> float:
    """Horner evaluation of the truncated expansion."""
    return _horner(series.coefficients, x)[0]


# -- large-x asymptotic tail ---------------------------------------------

def tail_coefficients(m: int) -> tuple[float, ...]:
    """Correction coefficients c_1..c_6 of the m-th tail.

    Polynomials in mu = m + 1/2 with alternating (-1)^m signs on the odd
    entries; transcribed once, enforced by the residual-order tests.
    """
    mu = m + 0.5
    sg = -1.0 if m % 2 else 1.0
    return (
        sg * mu / PI,
        3 * mu / PI ** 2,
        sg * (mu ** 3 / (6 * PI) + 15 * mu / PI ** 3),
        8 * mu ** 3 / (3 * PI ** 2) + 105 * mu / PI ** 4,
        sg * (3 * mu ** 5 / (40 * PI) + 36 * mu ** 3 / PI ** 3 + 945 * mu / PI ** 5),
        38 * mu ** 5 / (15 * PI ** 2) + 498 * mu ** 3 / PI ** 4 + 10395 * mu / PI ** 6,
    )


@dataclass(frozen=True)
class AsymptoticTail:
    """Truncated large-x tail of the m-th bundle (separatrix for odd m)."""

    m: int
    truncation: int = 6
    coefficients: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not 0 <= self.truncation <= 6:
            raise ValueError("truncation must be in 0..6")
        object.__setattr__(self, "coefficients", tail_coefficients(self.m))

    @property
    def leading(self) -> float:
        return self.m + 0.5


def _tail_terms(tail: AsymptoticTail, x: float) -> list[float]:
    terms = [tail.leading / x]
    for k in range(1, tail.truncation + 1):
        terms.append(tail.coefficients[k - 1] * x ** (-(2 * k + 1)))
    return terms


def tail_is_asymptotic(tail: AsymptoticTail, x: float) -> bool:
    """Each term must be < 0.1x the preceding term of the same parity.

    The odd-k and even-k coefficients form two separate families (the odd
    ones carry the high powers of m + 1/2), so adjacent terms are compared
    within their family; t_1 is still checked against t_0.
    """
    t = [abs(v) for v in _tail_terms(tail, x)]
    if len(t) >= 2 and t[1] >= 0.1 * t[0]:
        return False
    for k in range(2, len(t)):
        if t[k] >= 0.1 * t[k - 2]:
            return False
    return True


def asymptotic_tail_eval(tail: AsymptoticTail, x: float) -> tuple[float, float]:
    """Evaluate (y, y') of the truncated tail at x > 0.

    Raises TailNotAsymptotic where the term-decrease test fails; the tail
    is an asymptotic series, not a convergent one.
    """
    if x <= 0:
        raise ValueError("tail is defined for x > 0")
    if not tail_is_asymptotic(tail, x):
        raise TailNotAsymptotic(f"tail m={tail.m} not ordered at x={x}")
    y = tail.leading / x
    yp = -tail.leading / x ** 2
    for k in range(1, tail.truncation + 1):
        c = tail.coefficients[k - 1]
        y += c * x ** (-(2 * k + 1))
        yp -= (2 * k + 1) * c * x ** (-(2 * k + 2))
    return y, yp


def bundle_index(x: float, y: float) -> int:
    """Estimator round(x*y - 1/2) of the bundle index m; even off-separatrix."""
    return round(x * y - 0.5)


# Not in __all__: it runs once per accepted step, and perfbench/tracer.py
# opens a span for every exported function.
def trapped_in_even_bundle(x: float, y: float) -> bool:
    """True inside the strip m = floor(x*y - 1/2) >= 0 even,
    0 < w = x*y - (m + 1/2) < 1/2, x^2 > m + 1, which no forward solution
    leaves and in which no maximum can follow.  Proof:
    - for even m the equation gives w' = y - x sin(pi w), y' = -sin(pi w);
    - at w = 0, w' = (m + 1/2)/x > 0; at w = 1/2, w' = (m + 1)/x - x < 0
      once x^2 > m + 1, which stays true as x grows;
    - so the strip is forward-invariant, and y' < 0 inside it.
    """
    u = x * y - 0.5
    m = math.floor(u)
    w = u - m
    return m >= 0 and m % 2 == 0 and 0.0 < w < 0.5 and x * x > m + 1


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
