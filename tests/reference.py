"""Reference routes the tests check nel against.

Each is written on numpy and the standard library alone and imports
nothing from nel, so no defect in a helper nel shares between its routes
(``_contract``, ``_polish``, ``_bisect``, the dense-output step lookup) can
move a route and its reference together.

- ``extrema``: the sign changes of a scalar trajectory's slope;
- ``companion`` and ``companion_roots``: polynomial roots by eigenvalues;
- ``taylor_coefficients``: the series of y' = cos(pi x y) at x = 0;
- ``dormand_prince`` and ``quartic_read``: the Dormand-Prince 5(4) loop over
  tuple states and the read of its step records, on an exact tableau
  (``DP_C``, ``DP_A``, ``DP_E``, ``DP_P``) and controller constants of their
  own; both step loops of ``nel.ode`` must reproduce them bit for bit;
- ``laurent_poles``: the Painleve-I poles by Laurent matching on that loop
  (``pole_series``, ``pole_series_derivatives``, ``pole_series_eval``,
  ``laurent_match``), the route nel's pole chart replaced.
"""

import math
from array import array
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import polynomial as P


def extrema(traj) -> list[tuple[float, float, str]]:
    """(x_l, x_r, kind) of each sign change of a scalar trajectory's y', in
    trajectory order, kind "max" or "min"; nothing is bisected.

    Each step is probed at its ends (the stored slopes k1 and k7 of its
    record) and at 1/4, 1/2 and 3/4 of it through
    ``traj.slope``.  Two consecutive probes bracket a change where the first
    slope is nonzero and the product is not >= 0.  In +x order a maximum is
    a + to - change; a backward trajectory visits the right side first.
    """
    rec = np.asarray(traj._dense).reshape(-1, 10)
    a, b = rec[:, :1], rec[:, 1:2]
    inner = a + (b - a) * np.array([0.25, 0.5, 0.75])
    px = np.hstack([a, inner, b])
    pf = np.column_stack([rec[:, 4], traj.slope(inner.ravel()).reshape(-1, 3), rec[:, 9]])
    fl, fr = pf[:, :-1].ravel(), pf[:, 1:].ravel()
    k = np.nonzero((fl != 0.0) & ~(fl * fr >= 0.0))[0]
    rising = (fl[k] > 0) == (traj.direction > 0)
    return [(xl, xr, "max" if up else "min") for xl, xr, up in
            zip(px[:, :-1].ravel()[k].tolist(), px[:, 1:].ravel()[k].tolist(), rising)]


def companion(coeffs) -> np.ndarray:
    """The monic companion matrix of each row of ascending coefficients,
    shape (rows, d, d); one row may be given as a 1-D sequence."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    d = c.shape[1] - 1
    m = np.zeros((len(c), d, d), dtype=complex)
    m[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
    m[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return m


def companion_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(roots, residuals |p(z)|) of each row of ascending coefficients, as
    ``companion`` takes them; a 1-D input gives 1-D outputs.

    The eigenvalues of the companion matrix (a backward-stable root finder:
    Edelman and Murakami, Math. Comp. 64, 1995), then two Newton steps
    through numpy's polyval, each kept only where |p| falls.
    """
    c = np.asarray(coeffs, dtype=complex)
    cols = np.atleast_2d(c).T[:, :, None]          # (d + 1, rows, 1)
    dcols = P.polyder(cols)
    z = np.linalg.eigvals(companion(c))
    # at a multiple root p' = 0 and the step overflows; |p| then rejects it
    with np.errstate(all="ignore"):
        p = P.polyval(z, cols, tensor=False)
        for _ in range(2):
            trial = z - p / P.polyval(z, dcols, tensor=False)
            q = P.polyval(trial, cols, tensor=False)
            lower = np.abs(q) < np.abs(p)
            z, p = np.where(lower, trial, z), np.where(lower, q, p)
    return (z, np.abs(p)) if c.ndim == 2 else (z[0], np.abs(p[0]))


def taylor_coefficients(a, n_terms: int, pi=math.pi) -> list:
    """b_0..b_n_terms of y = sum b_n x^n solving y' = cos(pi x y), y(0) = a,
    in the number type of a and pi: floats, or exact elements of Q[pi].

    With u = pi x y, c = cos u and s = sin u: y' = c, c' = -s u', s' = c u',
    and u' = pi (xy)' has the coefficients pi (j + 1) b_j; the Cauchy
    products give each order from the ones before it.
    """
    zero = pi * 0
    b, cc, ss = [a], [zero + 1], [zero]
    for n in range(n_terms):
        b.append(cc[n] / (n + 1))
        sc = sm = zero
        for j in range(n + 1):
            w = pi * (j + 1) * b[j]
            sc = sc + ss[n - j] * w
            sm = sm + cc[n - j] * w
        cc.append(-sc / (n + 1))
        ss.append(sm / (n + 1))
    return b


# -- Dormand-Prince 5(4) -------------------------------------------------------

# The tableau of Dormand and Prince (J. Comput. Appl. Math. 6, 1980), exact.
# DP_A holds rows 2..7; stage 7 is evaluated at the new sample, so its row is
# the fifth-order weights b.  DP_E = b - b_hat, the embedded fourth-order
# solution's defect.  Row s of DP_P holds the coefficients of theta^1..theta^4
# in the quartic dense weight b_s(theta) (Hairer, Norsett and Wanner, II.6).
DP_C = (F(0), F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1))
DP_A = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
DP_E = (F(71, 57600), F(0), F(-71, 16695), F(71, 1920), F(-17253, 339200), F(22, 525),
        F(-1, 40))
DP_P = (
    (F(1), F(-8048581381, 2820520608), F(8663915743, 2820520608),
     F(-12715105075, 11282082432)),
    (F(0), F(0), F(0), F(0)),
    (F(0), F(131558114200, 32700410799), F(-68118460800, 10900136933),
     F(87487479700, 32700410799)),
    (F(0), F(-1754552775, 470086768), F(14199869525, 1410260304),
     F(-10690763975, 1880347072)),
    (F(0), F(127303824393, 49829197408), F(-318862633887, 49829197408),
     F(701980252875, 199316789632)),
    (F(0), F(-282668133, 205662961), F(2019193451, 616988883), F(-1453857185, 822651844)),
    (F(0), F(40617522, 29380423), F(-110615467, 29380423), F(69997945, 29380423)),
)


def _terms(weights):
    """(stage, float weight) of each nonzero weight, in stage order.  A zero
    weight is left out, not added as 0 * k, which would turn a sum of -0.0
    into 0.0 and an infinite k into NaN."""
    return tuple((s, float(w)) for s, w in enumerate(weights) if w)


_C = tuple(map(float, DP_C))
_A_TERMS = tuple(map(_terms, DP_A))
_E_TERMS = _terms(DP_E)
_P_TERMS = tuple(_terms(column) for column in zip(*DP_P))    # theta^1..theta^4

# PI controller: an accepted step scales h by safety * err^-expo1 * err_prev^beta
_SAFETY, _BETA = 0.9, 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN, _FAC_MAX = 0.2, 6.0
_DEFAULTS = SimpleNamespace(rel_tol=1e-10, abs_tol=1e-12, initial_step=0.0,
                            max_steps=5_000_000)


class NonFiniteState(RuntimeError):
    """A non-finite state or slope, or a rejected step that no longer moves x."""


class StepLimitExceeded(RuntimeError):
    """cfg.max_steps attempts spent before x1."""


def _dot(terms, ks, c):
    """Component c of sum w * k_s over (s, w) in ``terms``, summed left to
    right in stage order."""
    (s, w), *rest = terms
    acc = w * ks[s][c]
    for s, w in rest:
        acc += w * ks[s][c]
    return acc


def _rms(values, scales):
    return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scales)) / len(values))


def _positive_step(h, x0):
    if not 0 < h < math.inf:
        raise NonFiniteState(f"no positive finite initial step at x={x0}")
    return h


def _initial_step(f, x0, y0, f0, x1, cfg):
    """cfg.initial_step clipped to the span, or the automatic first step of
    Hairer, Norsett and Wanner (II.4) in the scaled RMS norm."""
    span = abs(x1 - x0)
    if cfg.initial_step > 0:
        return min(cfg.initial_step, span)
    direction = 1 if x1 > x0 else -1
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0, d1 = _rms(y0, sc), _rms(f0, sc)
    h0 = _positive_step(min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, span), x0)
    f1 = f(x0 + h0 * direction, tuple(v + h0 * direction * g for v, g in zip(y0, f0)))
    d2 = _rms([a - b for a, b in zip(f1, f0)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return _positive_step(min(100 * h0, h1, span), x0)


def dormand_prince(f, x0, y0, x1, cfg=None, dense=True, stop_when=None):
    """Integrate y' = f(x, y) from x0 to x1 by Dormand-Prince 5(4) with a PI
    step controller, as ``nel.ode.integrate`` documents it.

    A tuple y0 is stepped component by component, f and ``stop_when`` taking
    tuples; a float y0 runs as the 1-tuple (y0,), f and ``stop_when`` taking
    floats.  ``cfg`` is read by attribute alone (rel_tol, abs_tol,
    initial_step, max_steps); None takes the defaults.  The local error is
    the RMS over the components of the error estimate, each scaled by
    abs_tol + rel_tol * max(|y|, |y_new|).

    Returns a namespace with Trajectory's fields: ``xs`` and ``_ys`` hold
    every accepted sample, dense or not; ``_dense``, when ``dense``, the
    record [x_left, x_right, y_left, hs, k1, k3, k4, k5, k6, k7] of each
    step, each y and k of ``dim`` components; the step, rejection and stop
    results.  Raises this module's NonFiniteState and StepLimitExceeded.
    """
    cfg = _DEFAULTS if cfg is None else cfg
    scalar = isinstance(y0, (int, float))
    if scalar:
        field, stop = f, stop_when
        f = lambda x, s: (field(x, s[0]),)
        stop_when = stop and (lambda x, s: stop(x, s[0]))
        y0 = (y0,)
    y = tuple(float(v) for v in y0)
    rng = range(len(y))
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    xs, ys = array("d", [x0]), array("d", y)
    records = array("d") if dense else None

    x = x0
    k1 = tuple(f(x, y))
    if not all(map(math.isfinite, y + k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    h = _initial_step(f, x0, y, k1, x1, cfg)
    err_prev, fac_max = 1.0, _FAC_MAX
    steps = rejected = 0
    stopped = False

    for _ in range(cfg.max_steps):
        last = abs(x1 - x) <= h
        if last:
            h = abs(x1 - x)
        hs = h * direction
        ks = [k1]
        for s, terms in enumerate(_A_TERMS, 1):
            arg = tuple(y[c] + hs * _dot(terms, ks, c) for c in rng)
            at = x + _C[s] * hs if s < 6 else (x1 if last else x + hs)
            ks.append(tuple(f(at, arg)))
        x_new, y_new, k7 = at, arg, ks[6]           # stage 7 is at the new sample
        sc = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
        err = _rms([hs * _dot(_E_TERMS, ks, c) for c in rng], sc)

        if err <= 1.0:
            if not all(map(math.isfinite, y_new + k7)):
                raise NonFiniteState(f"non-finite state at x={x_new}")
            if dense:
                records.extend((x, x_new, *y, hs))
                for s in (0, 2, 3, 4, 5, 6):
                    records.extend(ks[s])
            x, y, k1 = x_new, y_new, k7
            xs.append(x)
            ys.extend(y)
            steps += 1
            if stop_when is not None and stop_when(x, y):
                stopped = True
                break
            if last:
                break
            if err == 0.0:
                fac = fac_max
            else:
                fac = min(fac_max, max(_FAC_MIN, _SAFETY * err ** -_EXPO1 * err_prev ** _BETA))
            h *= fac
            err_prev = max(err, 1e-4)
            fac_max = _FAC_MAX
        else:
            rejected += 1
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0
            if x + h * direction == x:
                raise NonFiniteState(f"step size underflow at x={x}")
    else:
        raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")

    return SimpleNamespace(xs=xs, _ys=ys, _dense=records, dim=len(y), direction=direction,
                           step_count=steps, rejected=rejected, stopped=stopped)


def quartic_read(traj, x, i=None):
    """(values, slopes) at x of the quartic of ``_dense`` record i, each a
    list over the components; by default i is the last record that starts
    at or before x.

    Built from the record alone, as ``nel.ode.Trajectory`` documents it:
    [x_left, x_right, y_left, hs, k1, k3, k4, k5, k6, k7], each y and k of
    ``dim`` components; y(x) = y_left + hs sum_s b_s(th) k_s with
    th = (x - x_left) / hs.
    """
    d, dn = traj.dim, traj._dense
    w = 3 + 7 * d
    if i is None:
        i = max(r for r in range(len(dn) // w) if (x - dn[r * w]) * traj.direction >= 0)
    rec = dn[i * w:(i + 1) * w]
    x_left, y_left, hs = rec[0], rec[2:2 + d], rec[2 + d]
    k1, k3, k4, k5, k6, k7 = (rec[3 + j * d:3 + (j + 1) * d] for j in range(1, 7))
    ks = (k1, None, k3, k4, k5, k6, k7)            # stage 2 has no dense weight
    th = (x - x_left) / hs
    values, slopes = [], []
    for c in range(d):
        q1, q2, q3, q4 = (_dot(terms, ks, c) for terms in _P_TERMS)
        values.append(y_left[c] + hs * th * (q1 + th * (q2 + th * (q3 + th * q4))))
        slopes.append(q1 + th * (2 * q2 + th * (3 * q3 + th * 4 * q4)))
    return values, slopes


# -- Laurent series at a Painleve-I double pole ------------------------------

SERIES_TERMS = 24
# The match heights: the floor 1.5 sqrt(135) ~ 17.43, and 40, where every pole
# that y0 = 1, a = -100..100 meet by x = -135 passes the tail check.
POLE_HEIGHTS = (1.5 * math.sqrt(135.0), 40.0)


class MatchFailed(RuntimeError):
    """The Laurent fit did not converge, or its tail broke its bound."""


def pole_series(x0, h, terms=SERIES_TERMS):
    """Coefficients c_j of y = sum c_j s^(j-2), j = 0..terms, s = x - x0, of
    the solution of y'' = y^2 + x with a double pole at x0.

    c_0 = 6 and the resonance sits at j = 6, where h enters freely; higher
    coefficients follow from c_m (m-6)(m+1) = sum_{i=1}^{m-1} c_i c_{m-i},
    where c vanishes at 1..3, so the sum runs over i = 4..m-4.
    """
    c = [0.0] * (terms + 1)
    c[0], c[4], c[5], c[6] = 6.0, -x0 / 10.0, -1.0 / 6.0, h
    for m in range(7, terms + 1):
        s = 0.0
        for i in range(4, m - 3):
            s += c[i] * c[m - i]
        c[m] = s / ((m - 6) * (m + 1))
    return c


def pole_series_derivatives(c):
    """(x0, h) derivatives of the coefficients c of ``pole_series``, by the
    differentiated recurrence over the same terms in the same order."""
    dx, dh = [0.0] * len(c), [0.0] * len(c)
    dx[4], dh[6] = -0.1, 1.0
    for m in range(7, len(c)):
        sx = sh = 0.0
        for i in range(4, m - 3):
            sx += dx[i] * c[m - i] + c[i] * dx[m - i]
            sh += dh[i] * c[m - i] + c[i] * dh[m - i]
        d = (m - 6) * (m + 1)
        dx[m], dh[m] = sx / d, sh / d
    return dx, dh


def _series_at(c, s):
    """(y, y') of sum c_j s^(j-2) and its (p, p') for p = sum c_j s^j."""
    p = dp = 0.0
    for cj in reversed(c):
        dp = dp * s + p
        p = p * s + cj
    return p / (s * s), dp / (s * s) - 2.0 * p / (s * s * s), p, dp


def pole_series_eval(x0, h, x):
    """(y, y') of the Laurent solution with data (x0, h), at x != x0."""
    return _series_at(pole_series(x0, h), x - x0)[:2]


def laurent_match(x, y, v, height):
    """(x0, h) of the Laurent series through the observed (y, v) at x, on
    the approach to a pole matched at ``height``, by Newton from the leading
    order x0 = x + 2y/v.  Raises MatchFailed where Newton does not converge
    in 60 steps to a relative residual of 1e-11, or where the 24-term tail
    |c_24 s^22| exceeds 1e-9 |y| at the match or at the restart offset
    s = -sqrt(6/height), whichever is farther from the pole."""
    x0, h = x + 2.0 * y / v, 0.0
    for _ in range(60):
        c = pole_series(x0, h)
        s = x - x0
        ys, vs, _, _ = _series_at(c, s)
        f1, f2 = ys - y, vs - v
        if abs(f1) <= 1e-11 * abs(y) and abs(f2) <= 1e-11 * abs(v):
            break
        dxc, dhc = pole_series_derivatives(c)
        yx, vx, _, _ = _series_at(dxc, s)
        yh, vh, _, _ = _series_at(dhc, s)
        # the total d/dx0 at fixed x is the parameter part minus d/ds
        j11, j12 = yx - vs, yh
        j21, j22 = vx - (ys * ys + x0 + s), vh
        det = j11 * j22 - j12 * j21
        d0 = (f1 * j22 - f2 * j12) / det
        d1 = (f2 * j11 - f1 * j21) / det
        cap = 0.5 * abs(s)           # keep the step from jumping past the pole
        if abs(d0) > cap:
            d1 *= cap / abs(d0)
            d0 = math.copysign(cap, d0)
        x0, h = x0 - d0, h - d1
    else:
        raise MatchFailed(f"Newton did not converge near x={x}")
    r, y_r = max((abs(s), abs(y)), (math.sqrt(6.0 / height), height))
    tail = abs(c[-1]) * r ** (SERIES_TERMS - 2) / (1e-9 * y_r)
    if tail > 1.0:
        raise MatchFailed(f"series truncation too coarse: tail={tail:.2e} of its bound")
    return x0, h


def laurent_poles(a, x_end, y0=1.0, cfg=None):
    """The poles (x0, h) with x0 > x_end of the Painleve-I solution from
    (0, (y0, a)) down to x_end < 0, by Laurent matching on ``dormand_prince``.

    A segment stops at its first sample with y >= height, y' < 0 and the
    pole signature y'^2 >= y^3/3; the series fitted there restarts the run
    at x0 - sqrt(6/height).  Each pole tries the floor height, and one whose
    tail breaks the bound there runs its segment again to 40.
    """
    x, state = 0.0, (float(y0), float(a))
    poles = []
    while x > x_end:
        for height in POLE_HEIGHTS:
            run = dormand_prince(
                lambda t, s: (s[1], s[0] * s[0] + t), x, state, x_end, cfg, dense=False,
                stop_when=lambda t, s, hh=height: s[0] >= hh and s[1] < 0 and
                s[1] * s[1] >= s[0] ** 3 / 3)
            if not run.stopped:
                return poles
            try:
                x0, h = laurent_match(run.xs[-1], run._ys[-2], run._ys[-1], height)
                break
            except MatchFailed:
                if height == POLE_HEIGHTS[-1]:
                    raise
        if x0 <= x_end:
            return poles
        poles.append((x0, h))
        x = x0 - math.sqrt(6.0 / height)
        state = pole_series_eval(x0, h, x)
    return poles
