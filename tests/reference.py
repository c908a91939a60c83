"""Reference routes the tests check nel against.

Each is written on numpy and the standard library alone and imports
nothing from nel, so no defect in a helper nel shares between its routes
(``_horner``, ``_contract``, ``_polish``, ``_bisect``, the dense-output step
lookup) can move a route and its reference together.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as P


def extrema(traj) -> list[tuple[float, float, str]]:
    """(x_l, x_r, kind) of each sign change of a scalar trajectory's y', in
    trajectory order, kind "max" or "min"; nothing is bisected.

    Each step is probed at its nodes (the stored slopes: each step's first
    stage, then the end slope) and at 1/4, 1/2 and 3/4 of it through
    ``traj.slope``.  Two consecutive probes bracket a change where the first
    slope is nonzero and the product is not >= 0.  In +x order a maximum is
    a + to - change; a backward trajectory visits the right side first.
    """
    nodes = np.asarray(traj.xs)
    fs = np.append(np.asarray(traj._dense)[1::6], traj._f_end)
    a, b = nodes[:-1, None], nodes[1:, None]
    inner = a + (b - a) * np.array([0.25, 0.5, 0.75])
    px = np.hstack([a, inner, b])
    pf = np.column_stack([fs[:-1], traj.slope(inner.ravel()).reshape(-1, 3), fs[1:]])
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
