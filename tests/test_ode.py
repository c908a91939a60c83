import math
import sys
import time
from array import array
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.cosine import (AsymptoticTail, asymptotic_tail_eval, rhs_unscaled,
                        trapped_in_even_bundle)
from nel.ode import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61,
                     _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _BETA, _C2, _C3,
                     _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, _EXPO1, _FAC_MAX, _FAC_MIN,
                     _P12, _P13, _P14, _P32, _P33, _P34, _P42, _P43, _P44, _P52, _P53,
                     _P54, _P62, _P63, _P64, _P72, _P73, _P74, _SAFETY,
                     IntegratorConfig, NonFiniteState, StepLimitExceeded, Trajectory,
                     _initial_step_scalar, find_extrema, integrate)
from nel.painleve import _Y_RESTART, integrate_with_poles, painleve_rhs, pole_series_eval
from nel.separatrix import _forward_span, backward_start


def test_constant_field_is_exact():
    traj = integrate(lambda x, y: 0.0, 0.0, 5.0, 10.0)
    assert traj.y_end == 5.0
    assert traj.x_end == 10.0


def test_exponential_within_ten_rel_tol():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(lambda x, y: y, 0.0, 1.0, 1.0, cfg)
    assert abs(traj.y_end - math.e) <= 10 * cfg.rel_tol * math.e


def test_cosine_model_against_taylor_oracle():
    # Frozen from the order-30 Taylor expansion of y' = cos(pi x y), y(0)=0,
    # evaluated at x = 0.1 (the recurrence is exercised in test_cosine).
    expected = 0.09999013192860332
    traj = integrate(lambda x, y: math.cos(math.pi * x * y), 0.0, 0.0, 0.1)
    assert abs(traj.y_end - expected) < 1e-10


def test_dense_output_matches_nodes_and_analytic():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(lambda x, y: y, 0.0, 1.0, 1.0, cfg)
    for i in range(len(traj)):
        assert traj(traj.xs[i]) == pytest.approx(traj.state(i), abs=cfg.abs_tol)
    for k in range(21):
        x = k / 20
        assert abs(traj(x) - math.exp(x)) < 10 * cfg.rel_tol * math.e
        assert abs(traj.derivative(x) - math.exp(x)) < 1e-8


def test_tolerance_halving_changes_result_less_than_coarse_tol():
    coarse = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    fine = IntegratorConfig(rel_tol=5e-9, abs_tol=5e-11)
    ya = integrate(lambda x, y: y, 0.0, 1.0, 1.0, coarse).y_end
    yb = integrate(lambda x, y: y, 0.0, 1.0, 1.0, fine).y_end
    assert abs(ya - yb) < coarse.rel_tol


def test_global_error_tracks_tolerance_over_four_decades():
    errs = []
    tols = [1e-6, 1e-8, 1e-10, 1e-12]
    for tol in tols:
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2)
        errs.append(abs(integrate(lambda x, y: y, 0.0, 1.0, 2.0, cfg).y_end - math.e ** 2))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # ~proportional scaling: fitted log-log slope near 1
    slope = (math.log(errs[0] / errs[-1])) / (math.log(tols[0] / tols[-1]))
    assert 0.6 < slope < 1.4


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_reversibility(scale):
    # Short span: beyond x ~ 3 the model's bundle contraction (~exp(-pi x^2/2))
    # erases the initial condition below double precision, so no integrator
    # could return; the backward flow then lands on a separatrix instead.
    cfg = IntegratorConfig(rel_tol=1e-10 * scale, abs_tol=1e-12 * scale)
    f = lambda x, y: math.cos(math.pi * x * y)
    fwd = integrate(f, 0.0, 0.8, 2.0, cfg)
    back = integrate(f, 2.0, fwd.y_end, 0.0, cfg)
    assert abs(back.y_end - 0.8) < 100 * cfg.rel_tol
    fwd = integrate(lambda x, y: y, 0.0, 1.0, 1.0, cfg)
    back = integrate(lambda x, y: y, 1.0, fwd.y_end, 0.0, cfg)
    assert abs(back.y_end - 1.0) < 100 * cfg.rel_tol


def test_backward_integration():
    traj = integrate(lambda x, y: y, 1.0, math.e, 0.0)
    assert traj.direction == -1
    assert abs(traj.y_end - 1.0) < 1e-9
    assert abs(traj(0.5) - math.exp(0.5)) < 1e-9


def test_vector_system_harmonic_oscillator():
    traj = integrate(lambda x, y: (y[1], -y[0]), 0.0, (0.0, 1.0), math.pi)
    s, c = traj.y_end
    assert abs(s) < 1e-9 and abs(c + 1.0) < 1e-9
    mid = traj(math.pi / 2)
    assert abs(mid[0] - 1.0) < 1e-9


def test_step_limit_exceeded():
    cfg = IntegratorConfig(max_steps=10)
    with pytest.raises(StepLimitExceeded):
        integrate(lambda x, y: math.cos(math.pi * x * y), 0.0, 2.0, 20.0, cfg)


def test_non_finite_state_detected():
    # y' = 1 + y^2 blows up at x = pi/2 (tan): the rejected steps shrink
    # until they can no longer move x
    cfg = IntegratorConfig(max_steps=100_000)
    with pytest.raises(NonFiniteState):
        integrate(lambda x, y: 1.0 + y * y, 0.0, 0.0, 3.0, cfg)


@pytest.mark.parametrize("f, y0, x1, where", [
    (lambda x, y: math.nan if x > 1 else math.cos(math.pi * x * y), 1.0, 5.0, "x=1.0"),
    (lambda x, y: (y[1], math.nan) if x > 1 else (y[1], -y[0]), (1.0, 0.0), 5.0, "x=1.0"),
    (lambda x, y: 1.0 + y * y, 0.0, 3.0, "x=1.57079632"),
    (lambda x, y: 1.0 + y * y, 0.0, -3.0, "x=-1.57079632"),
    (lambda x, y: (1.0 + y[0] * y[0], 0.0), (0.0, 0.0), 3.0, "x=1.57079632"),
], ids=["scalar-nan-slope", "pair-nan-slope", "tan", "tan-backward", "pair-tan"])
def test_step_size_underflow_fails_fast(f, y0, x1, where):
    # every attempt past the bad point is rejected; once a step can no longer
    # move x the run stops instead of spending the default 5,000,000 attempts
    start = time.perf_counter()
    with pytest.raises(NonFiniteState, match=f"step size underflow at {where}"):
        integrate(f, 0.0, y0, x1)
    assert time.perf_counter() - start < 1.0


def test_stop_when_hook():
    traj = integrate(lambda x, y: y, 0.0, 1.0, 5.0, stop_when=lambda x, y: y >= 10.0)
    assert traj.stopped
    assert traj.y_end >= 10.0
    assert traj.x_end < 5.0


def test_same_endpoint_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x, y: y, 1.0, 1.0, 1.0)


def test_find_extrema_constant_empty():
    traj = integrate(lambda x, y: 0.0, 0.0, 1.0, 10.0)
    assert find_extrema(traj) == []


def test_find_extrema_sine():
    traj = integrate(lambda x, y: math.cos(x), 0.0, 0.0, 2 * math.pi)
    ext = find_extrema(traj)
    assert len(ext) == 2
    (x1, y1, k1), (x2, y2, k2) = ext
    # location accuracy is set by the quartic interpolant, ~1e-8 here
    assert k1 == "max" and abs(x1 - math.pi / 2) < 5e-8 and abs(y1 - 1) < 1e-9
    assert k2 == "min" and abs(x2 - 3 * math.pi / 2) < 5e-8 and abs(y2 + 1) < 1e-9


def test_find_extrema_backward_direction():
    traj = integrate(lambda x, y: math.cos(x), 2 * math.pi, 0.0, 0.0)
    kinds = [k for _, _, k in find_extrema(traj)]
    assert kinds == ["min", "max"]  # visited in decreasing x


def test_cosine_class_one_has_single_maximum():
    # 0.5 sits between the first two separatrix intercepts, so one maximum.
    traj = integrate(lambda x, y: math.cos(math.pi * x * y), 0.0, 0.5, 12.0)
    assert sum(1 for _, _, k in find_extrema(traj) if k == "max") == 1


def test_config_validation():
    # NaN must not pass for "unset", nor a float or a bool for an attempt count
    for kw in [dict(rel_tol=0.0), dict(rel_tol=math.nan), dict(rel_tol=math.inf),
               dict(abs_tol=-1e-12), dict(abs_tol=math.nan), dict(abs_tol=math.inf),
               dict(initial_step=-1.0), dict(initial_step=math.nan),
               dict(initial_step=math.inf), dict(max_steps=0), dict(max_steps=2.5),
               dict(max_steps=10.0), dict(max_steps=True)]:
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)
    IntegratorConfig(initial_step=0.0, max_steps=1)
    # the step size is bounded by the controller and the span alone
    assert [f.name for f in fields(IntegratorConfig)] == ["rel_tol", "abs_tol",
                                                         "initial_step", "max_steps"]


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.2, max_value=3.0))
def test_determinism(y0, x1):
    f = lambda x, y: math.cos(math.pi * x * y)
    a = integrate(f, 0.0, y0, x1)
    b = integrate(f, 0.0, y0, x1)
    assert a.y_end == b.y_end and len(a) == len(b)


# -- grid reads: Trajectory.sample ------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.5, max_value=4.0),
       st.booleans(),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40))
def test_sample_equals_point_reads_bitwise(y0, span, backward, fracs):
    x0, x1 = (span, 0.0) if backward else (0.0, span)
    traj = integrate(lambda x, y: math.cos(math.pi * x * y), x0, y0, x1)
    xs = list(traj.xs) + [x0 + (x1 - x0) * f for f in fracs] + [x1, x0]
    got = traj.sample(xs)
    assert got.shape == (len(xs),)
    assert (_bits(got) == _bits([_layout_read(traj, x)[0] for x in xs])).all()
    assert (_bits(traj.slope(xs)) == _bits([_layout_slope(traj, x) for x in xs])).all()


def _layout_read(traj, x):
    """Point read written from the documented _dense layout
    [h, y_left..., q1..., q2..., q3..., q4...] per step."""
    d, nodes = traj.dim, traj.xs
    i = min(max(k for k in range(len(nodes)) if (x - nodes[k]) * traj.direction >= 0),
            len(nodes) - 2)
    rec = traj._dense[i * (1 + 5 * d):(i + 1) * (1 + 5 * d)]
    h = rec[0]
    th = (x - nodes[i]) / h
    return [rec[1 + c] + h * th * (rec[1 + d + c] + th * (rec[1 + 2 * d + c]
            + th * (rec[1 + 3 * d + c] + th * rec[1 + 4 * d + c])))
            for c in range(d)]


def _layout_slope(traj, x):
    """Derivative read of a scalar trajectory written from the same layout:
    y'(x) = q1 + 2 q2 th + 3 q3 th^2 + 4 q4 th^3."""
    nodes = traj.xs
    i = min(max(k for k in range(len(nodes)) if (x - nodes[k]) * traj.direction >= 0),
            len(nodes) - 2)
    h, _, q1, q2, q3, q4 = traj._dense[6 * i:6 * i + 6]
    th = (x - nodes[i]) / h
    return q1 + th * (2 * q2 + th * (3 * q3 + th * 4 * q4))


def _scalar_find_extrema(traj, xtol=1e-10):
    """find_extrema as a scalar loop, one bracket and one point read at a
    time, on the layout reads above: the route the lockstep version
    replaced, kept as its reference."""
    out = []
    xs, fs = traj.xs, [*traj._dense[2::6], traj._f_end]
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        probes = [(a, fs[i])]
        for frac in (0.25, 0.5, 0.75):
            xm = a + (b - a) * frac
            probes.append((xm, _layout_slope(traj, xm)))
        probes.append((b, fs[i + 1]))
        for (xl, fl), (xr, fr) in zip(probes, probes[1:]):
            if fl == 0.0 or fl * fr >= 0.0:
                continue
            lo, hi = xl, xr
            it = max(20, math.ceil(math.log2(max(abs(hi - lo) / xtol, 2.0))))
            for _ in range(min(it, 80)):
                mid = 0.5 * (lo + hi)
                fm = _layout_slope(traj, mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (fl > 0):
                    lo = mid
                else:
                    hi = mid
            x_star = 0.5 * (lo + hi)
            if traj.direction > 0:
                kind = "max" if fl > 0 else "min"
            else:
                kind = "max" if fl < 0 else "min"
            if out and abs(out[-1][0] - x_star) < 10 * xtol:
                continue
            out.append((x_star, _layout_read(traj, x_star)[0], kind))
    return out


def _same_extrema(got, want):
    assert [k for _, _, k in got] == [k for _, _, k in want]
    assert (_bits([(x, y) for x, y, _ in got]).reshape(-1, 2)
            == _bits([(x, y) for x, y, _ in want]).reshape(-1, 2)).all()


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.5, max_value=6.0),
       st.booleans())
def test_find_extrema_equals_scalar_loop_bitwise(y0, span, backward):
    x0, x1 = (span, 0.0) if backward else (0.0, span)
    traj = integrate(rhs_unscaled, x0, y0, x1)
    _same_extrema(find_extrema(traj), _scalar_find_extrema(traj))


@pytest.mark.parametrize("a", [0.3, 1.0, 1.7, 2.4, 3.0, 4.1])
def test_find_extrema_equals_scalar_loop_on_maxima_count_spans(a):
    # the full forward span that classify_initial_condition reads, on both
    # sides of a_1..a_4
    traj = integrate(rhs_unscaled, 0.0, a, _forward_span(a))
    got = find_extrema(traj)
    assert got
    _same_extrema(got, _scalar_find_extrema(traj))


def test_sample_vector_trajectory_matches_layout_and_nodes():
    traj = integrate(lambda x, y: (y[1], -y[0]), 3.0, (1.0, 0.0), -5.0)
    xs = list(traj.xs) + [3.0 - 8.0 * k / 97 for k in range(98)]
    got = traj.sample(xs)
    assert got.shape == (len(xs), 2)
    assert (_bits(got) == _bits([_layout_read(traj, x) for x in xs])).all()
    for i in range(1, len(traj) - 1):
        assert tuple(got[i]) == traj.state(i)
    assert traj(xs[5]) == tuple(got[5])
    with pytest.raises(ValueError):
        traj.derivative(0.0)


@pytest.mark.parametrize("x", [-0.1, 2.0000001, math.nan])
def test_sample_rejects_abscissae_outside_the_trajectory(x):
    traj = integrate(lambda x, y: -y, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        traj.sample([1.0, x])


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("x", [-0.1, 2.0000001, math.nan])
def test_point_reads_reject_abscissae_outside_the_trajectory(x, backward):
    traj = integrate(lambda x, y: -y, *((2.0, 0.1, 0.0) if backward else (0.0, 1.0, 2.0)))
    with pytest.raises(ValueError):
        traj(x)
    with pytest.raises(ValueError):
        traj.derivative(x)


def test_sample_requires_dense_output():
    traj = integrate(lambda x, y: -y, 0.0, 1.0, 2.0, dense=False)
    with pytest.raises(ValueError):
        traj.sample([1.0])


@pytest.mark.parametrize("x0, y0, x1, dense, xs", [
    (0.0, 1.0, 2.0, True, [1.0, -0.1]),
    (0.0, 1.0, 2.0, True, [2.0000001]),
    (0.0, 1.0, 2.0, True, [math.nan]),
    (2.0, 0.1, 0.0, True, [-0.1]),
    (2.0, 0.1, 0.0, True, [1.0, 2.0000001]),
    (2.0, 0.1, 0.0, True, [math.nan]),
    (0.0, 1.0, 2.0, False, [1.0]),
    (0.0, (0.0, 1.0), 1.0, True, [0.5]),
], ids=["below", "above", "nan", "backward-below", "backward-above", "backward-nan",
        "no-dense", "vector"])
def test_slope_rejects_bad_reads(x0, y0, x1, dense, xs):
    rhs = (lambda x, y: -y) if isinstance(y0, float) else (lambda x, y: (y[1], -y[0]))
    traj = integrate(rhs, x0, y0, x1, dense=dense)
    with pytest.raises(ValueError):
        traj.slope(xs)


# -- the pair stepper against the generic tuple loop it replaced --------------

def _tuple_initial_step(f, x0, y0, f0, direction, rtol, atol, span):
    n = len(y0)
    sc = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, sc)) / n)
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, sc)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(v + h0 * direction * g for v, g in zip(y0, f0))
    f1 = f(x0 + h0 * direction, y1)
    d2 = math.sqrt(sum(((a - b) / s) ** 2 for a, b, s in zip(f1, f0, sc)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _tuple_reference(f, x0, y0, x1, cfg=None, dense=True, stop_when=None):
    """The Dormand-Prince loop over the components of a tuple state, for any
    dimension; the pair stepper must reproduce it bit for bit."""
    cfg = cfg or IntegratorConfig()
    y0 = tuple(float(v) for v in y0)
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    dim = len(y0)
    rng = range(dim)
    traj = Trajectory(dim, direction)
    xs, ys = traj.xs, traj._ys
    dn = array("d") if dense else None

    x, y = x0, y0
    k1 = tuple(f(x, y))
    if not all(map(math.isfinite, y)) or not all(map(math.isfinite, k1)):
        raise NonFiniteState(f"non-finite initial data at x={x}")
    xs.append(x)
    ys.extend(y)

    if cfg.initial_step > 0:
        h = min(cfg.initial_step, span)
    else:
        h = _tuple_initial_step(f, x0, y0, k1, direction, rtol, atol, span)
    err_prev = 1.0
    fac_max = _FAC_MAX
    attempts = 0
    max_steps = cfg.max_steps

    while True:
        attempts += 1
        if attempts > max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} exhausted at x={x}")
        last = (abs(x1 - x) <= h)
        if last:
            h = abs(x1 - x)
        hs = h * direction

        k2 = f(x + _C2 * hs, tuple(y[i] + hs * (_A21 * k1[i]) for i in rng))
        k3 = f(x + _C3 * hs, tuple(y[i] + hs * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
        k4 = f(x + _C4 * hs, tuple(y[i] + hs * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                                   for i in rng))
        k5 = f(x + _C5 * hs, tuple(y[i] + hs * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                                                + _A54 * k4[i]) for i in rng))
        k6 = f(x + hs, tuple(y[i] + hs * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                                          + _A64 * k4[i] + _A65 * k5[i]) for i in rng))
        y_new = tuple(y[i] + hs * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i]
                                   + _B5 * k5[i] + _B6 * k6[i]) for i in rng)
        x_new = x1 if last else x + hs
        k7 = f(x_new, y_new)

        err = 0.0
        for i in rng:
            e = hs * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i]
                      + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(y_new[i]))
            err += (e / sc) ** 2
        err = math.sqrt(err / dim)

        if err <= 1.0:
            if not all(map(math.isfinite, y_new)) or not all(map(math.isfinite, k7)):
                raise NonFiniteState(f"non-finite state at x={x_new}")
            if dense:
                dn.append(hs)
                dn.extend(y)
                dn.extend(k1)
                for pa, pb, pc, pd, pe, pf in ((_P12, _P32, _P42, _P52, _P62, _P72),
                                               (_P13, _P33, _P43, _P53, _P63, _P73),
                                               (_P14, _P34, _P44, _P54, _P64, _P74)):
                    dn.extend(pa * k1[i] + pb * k3[i] + pc * k4[i]
                              + pd * k5[i] + pe * k6[i] + pf * k7[i] for i in rng)
            x, y, k1 = x_new, y_new, tuple(k7)
            xs.append(x)
            ys.extend(y)
            traj.step_count += 1
            if stop_when is not None and stop_when(x, y):
                traj.stopped = True
                break
            if last:
                break
            if err == 0.0:
                fac = fac_max
            else:
                fac = _SAFETY * err ** -_EXPO1 * err_prev ** _BETA
                fac = min(fac_max, max(_FAC_MIN, fac))
            h *= fac
            err_prev = max(err, 1e-4)
            fac_max = _FAC_MAX
        else:
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0
            traj.rejected += 1

    traj._dense = dn
    return traj


def _oscillator(x, y):
    return (y[1], -y[0])


def _counted(f):
    calls = []

    def rhs(x, y):
        calls.append(x)
        return f(x, y)
    return rhs, calls


_PAIR_RUNS = {
    "oscillator-forward": (_oscillator, 0.0, (1.0, 0.0), 20.0, None, True, None),
    "oscillator-backward": (_oscillator, 3.0, (0.3, -1.2), -17.0, None, True, None),
    "painleve-to-pole": (painleve_rhs, 0.0, (1.0, 5.0), -30.0, None, True,
                         lambda x, y: abs(y[0]) > 1e3),
    "no-dense": (_oscillator, 0.0, (1.0, 0.0), 20.0, None, False, None),
    "tight-rejecting": (painleve_rhs, 0.0, (1.0, 5.0), -30.0,
                        IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15), True,
                        lambda x, y: abs(y[0]) > 1e6),
    # a first step of 1 is rejected until the controller has shrunk it
    "big-first-step-backward": (painleve_rhs, 0.0, (1.0, 5.0), -30.0,
                                IntegratorConfig(initial_step=1.0), True,
                                lambda x, y: abs(y[0]) > 1e3),
}


@pytest.mark.parametrize("run", list(_PAIR_RUNS))
def test_pair_stepper_equals_tuple_reference_bitwise(run):
    f, x0, y0, x1, cfg, dense, stop_when = _PAIR_RUNS[run]
    rhs, calls = _counted(f)
    got = integrate(rhs, x0, y0, x1, cfg, dense=dense, stop_when=stop_when)
    ref = _tuple_reference(f, x0, y0, x1, cfg, dense, stop_when)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    if dense:
        assert bytes(got._dense) == bytes(ref._dense)
    else:
        assert got._dense is None and ref._dense is None
    assert (got.dim, got.direction) == (ref.dim, ref.direction)
    assert (got.step_count, got.stopped) == (ref.step_count, ref.stopped)
    assert got.stopped == (stop_when is not None)
    # every run also rejects steps, so the reject branch is compared too
    assert got.rejected == ref.rejected > 0
    assert got.rhs_evals == len(calls)


@pytest.mark.parametrize("error, f, y0, cfg", [
    (NonFiniteState, _oscillator, (math.nan, 0.0), None),
    # a step of 2 overflows y while every derivative and the error stay finite
    (NonFiniteState, lambda x, y: (1e308, 0.0), (1.0, 1.0), IntegratorConfig(initial_step=2.0)),
    (StepLimitExceeded, _oscillator, (1.0, 0.0), IntegratorConfig(max_steps=10)),
], ids=["initial", "overflow", "budget"])
def test_pair_stepper_raises_as_tuple_reference(error, f, y0, cfg):
    with pytest.raises(error) as got:
        integrate(f, 0.0, y0, 50.0, cfg)
    with pytest.raises(error) as ref:
        _tuple_reference(f, 0.0, y0, 50.0, cfg)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("y0", [(), (1.0,), (1.0, 2.0, 3.0)])
def test_state_neither_scalar_nor_pair_rejected(y0):
    rhs, calls = _counted(lambda x, y: y)
    with pytest.raises(ValueError, match="float or a pair"):
        integrate(rhs, 0.0, y0, 1.0)
    assert calls == []


@pytest.mark.parametrize("f, y0", [
    (lambda x, y: 1e308, 1.0),
    (lambda x, y: 1e308, 0.0),
    (lambda x, y: (1e308, 0.0), (1.0, 1.0)),
    (lambda x, y: (1e308, 0.0), (0.0, 0.0)),
], ids=["scalar", "scalar-zero", "pair", "pair-zero"])
def test_overflowing_initial_slope_raises_non_finite(f, y0):
    # |f0| / (atol + rtol |y0|) overflows and drives the automatic first step
    # to 0: from y0 != 0 that divided by zero, from y0 = 0 it attempted h = 0
    # steps until the budget ran out
    with pytest.raises(NonFiniteState, match="initial step at x=0.0"):
        integrate(f, 0.0, y0, 1.0)


def _backward_run(n, dense):
    x_start = backward_start(n)
    y0 = asymptotic_tail_eval(AsymptoticTail(2 * n - 1), x_start)[0]
    return x_start, y0, 0.0, None, dense, None


_TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)     # bundle_decay_fit's
_MODEL_RUNS = {
    **{f"backward-{n}-{'dense' if dense else 'nodense'}": _backward_run(n, dense)
       for n in (-3, 1, 10, 300, 4000) for dense in (True, False)},
    **{f"maxima-count-{a}": (0.0, a, _forward_span(a), None, True, trapped_in_even_bundle)
       for a in (0.3, 1.7, 3.0, 6.0)},
    **{f"fig1-{k}": (0.0, 0.2 * k, 24.0, None, True, None) for k in (1, 10, 25, 50)},
    **{f"bundle-decay-{a}": (0.0, a, 4.5, _TIGHT, True, None) for a in (0.2, 0.4)},
    "fig1-50-first-step-1": (0.0, 10.0, 24.0, IntegratorConfig(initial_step=1.0), True, None),
}


@pytest.mark.parametrize("run", list(_MODEL_RUNS))
def test_inline_model_rhs_equals_call_route_bitwise(run):
    # rhs_unscaled itself takes the inline route; a wrapper of it is called
    x0, y0, x1, cfg, dense, stop_when = _MODEL_RUNS[run]
    got = integrate(rhs_unscaled, x0, y0, x1, cfg, dense=dense, stop_when=stop_when)
    rhs, calls = _counted(rhs_unscaled)
    ref = integrate(rhs, x0, y0, x1, cfg, dense=dense, stop_when=stop_when)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    if dense:
        assert bytes(got._dense) == bytes(ref._dense)
    else:
        assert got._dense is None and ref._dense is None
    assert got._f_end.hex() == ref._f_end.hex()
    assert (got.step_count, got.stopped) == (ref.step_count, ref.stopped)
    assert got.stopped == (stop_when is not None)
    # the inline stages count as evaluations: both routes report the same
    assert (got.rejected, got.rhs_evals) == (ref.rejected, ref.rhs_evals)
    assert ref.rhs_evals == len(calls)


@pytest.mark.parametrize("error, y0, cfg", [
    (NonFiniteState, math.nan, None),
    (NonFiniteState, math.inf, None),
    (StepLimitExceeded, 1.0, IntegratorConfig(max_steps=10)),
], ids=["nan", "inf", "budget"])
def test_inline_model_rhs_raises_as_call_route(error, y0, cfg):
    with pytest.raises(error) as got:
        integrate(rhs_unscaled, 0.0, y0, 50.0, cfg)
    with pytest.raises(error) as ref:
        integrate(lambda x, y: rhs_unscaled(x, y), 0.0, y0, 50.0, cfg)
    assert str(got.value) == str(ref.value)


def _rhs_calls(field, f, *args, **kwargs):
    """integrate(f, *args, **kwargs) and the number of times the code of
    ``field`` ran in it."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is field.__code__:
            calls[0] += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        traj = integrate(f, *args, **kwargs)
    finally:
        sys.setprofile(previous)
    return traj, calls[0]


@pytest.mark.parametrize("run", ["backward-10-dense", "maxima-count-3.0", "fig1-25"])
def test_model_rhs_is_evaluated_inline(run):
    x0, y0, x1, cfg, dense, stop_when = _MODEL_RUNS[run]
    kw = dict(dense=dense, stop_when=stop_when)
    traj, inline = _rhs_calls(rhs_unscaled, rhs_unscaled, x0, y0, x1, cfg, **kw)
    # k1 and the initial-step trial; every stage evaluation is inline
    assert inline == 2
    wrapped, called = _rhs_calls(rhs_unscaled, lambda x, y: rhs_unscaled(x, y),
                                 x0, y0, x1, cfg, **kw)
    assert wrapped.step_count == traj.step_count > 0
    assert called == wrapped.rhs_evals == traj.rhs_evals >= 2 + 6 * traj.step_count


# -- the inline Painleve-I field against the call route -----------------------

def _past_first_pole(a):
    # where painleve's pole continuation restarts past the first pole
    ev = integrate_with_poles(a, -30.0, dense=False)[1][0]
    x = ev.x0 - math.sqrt(6.0 / _Y_RESTART)
    return x, pole_series_eval(ev.x0, ev.h, x)


_PAINLEVE_RUNS = {
    **{run: args[1:] for run, args in _PAIR_RUNS.items() if args[0] is painleve_rhs},
    "forward-to-pole": (0.0, (1.0, 5.0), 5.0, None, True, lambda x, y: abs(y[0]) > 1e6),
    # an oscillatory fate: no pole on the whole window
    "no-dense-to-window-end": (0.0, (1.0, 2.0), -135.0, None, False, None),
    "restart-past-pole": (*_past_first_pole(5.0), -30.0, None, True,
                          lambda x, y: abs(y[0]) > 1e3),
}


@pytest.mark.parametrize("run", list(_PAINLEVE_RUNS))
def test_inline_painleve_rhs_equals_call_route_bitwise(run):
    # painleve_rhs itself takes the inline route; a wrapper of it is called
    x0, y0, x1, cfg, dense, stop_when = _PAINLEVE_RUNS[run]
    got = integrate(painleve_rhs, x0, y0, x1, cfg, dense=dense, stop_when=stop_when)
    rhs, calls = _counted(painleve_rhs)
    ref = integrate(rhs, x0, y0, x1, cfg, dense=dense, stop_when=stop_when)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    if dense:
        assert bytes(got._dense) == bytes(ref._dense)
    else:
        assert got._dense is None and ref._dense is None
    assert (got.step_count, got.stopped) == (ref.step_count, ref.stopped)
    assert got.stopped == (stop_when is not None)
    assert got.step_count > 0
    # the inline stages count as evaluations: both routes report the same
    assert (got.rejected, got.rhs_evals) == (ref.rejected, ref.rhs_evals)
    assert ref.rhs_evals == len(calls)


@pytest.mark.parametrize("error, y0, x1, cfg", [
    (NonFiniteState, (math.nan, 5.0), -30.0, None),
    # forward into a pole until the rejected step no longer moves x
    (NonFiniteState, (1.0, 5.0), 5.0, None),
    (StepLimitExceeded, (1.0, 5.0), -30.0, IntegratorConfig(max_steps=10)),
], ids=["initial", "underflow", "budget"])
def test_inline_painleve_rhs_raises_as_call_route(error, y0, x1, cfg):
    with pytest.raises(error) as got:
        integrate(painleve_rhs, 0.0, y0, x1, cfg)
    with pytest.raises(error) as ref:
        integrate(lambda x, y: painleve_rhs(x, y), 0.0, y0, x1, cfg)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("run", ["painleve-to-pole", "no-dense-to-window-end",
                                 "restart-past-pole"])
def test_painleve_rhs_is_evaluated_inline(run):
    x0, y0, x1, cfg, dense, stop_when = _PAINLEVE_RUNS[run]
    kw = dict(dense=dense, stop_when=stop_when)
    traj, inline = _rhs_calls(painleve_rhs, painleve_rhs, x0, y0, x1, cfg, **kw)
    # k1 and the initial-step trial; every stage evaluation is inline
    assert inline == 2
    wrapped, called = _rhs_calls(painleve_rhs, lambda x, y: painleve_rhs(x, y),
                                 x0, y0, x1, cfg, **kw)
    assert wrapped.step_count == traj.step_count > 0
    assert called == wrapped.rhs_evals == traj.rhs_evals >= 2 + 6 * traj.step_count


# -- the scalar dense records against a per-step build ------------------------

def _per_step_reference(f, x0, y0, x1, cfg=None, stop_when=None):
    """The scalar Dormand-Prince loop building each step's dense record
    [h, y_left, q1, q2, q3, q4] as it accepts the step; the scalar stepper,
    which builds them after the loop, must reproduce it bit for bit."""
    cfg = cfg or IntegratorConfig()
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    direction = 1 if x1 > x0 else -1
    span = abs(x1 - x0)
    traj = Trajectory(1, direction)
    dn = array("d")
    x, y = x0, y0
    k1 = f(x, y)
    traj.xs.append(x)
    traj._ys.append(y)
    if cfg.initial_step > 0:
        h = min(cfg.initial_step, span)
    else:
        h = _initial_step_scalar(f, x0, y0, k1, direction, rtol, atol, span)
    err_prev = 1.0
    fac_max = _FAC_MAX
    attempts = 0
    while True:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimitExceeded(f"max_steps={cfg.max_steps} exhausted at x={x}")
        last = (abs(x1 - x) <= h)
        if last:
            h = abs(x1 - x)
        hs = h * direction
        k2 = f(x + _C2 * hs, y + hs * (_A21 * k1))
        k3 = f(x + _C3 * hs, y + hs * (_A31 * k1 + _A32 * k2))
        k4 = f(x + _C4 * hs, y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(x + _C5 * hs, y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(x + hs, y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        x_new = x1 if last else x + hs
        k7 = f(x_new, y_new)
        err = abs(hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)) \
            / (atol + rtol * max(abs(y), abs(y_new)))
        if err <= 1.0:
            dn.fromlist([hs, y, k1,
                         _P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7,
                         _P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7,
                         _P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7])
            x, y, k1 = x_new, y_new, k7
            traj.xs.append(x)
            traj._ys.append(y)
            traj.step_count += 1
            if stop_when is not None and stop_when(x, y):
                traj.stopped = True
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
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0
            traj.rejected += 1
    traj._f_end = k1
    traj._dense = dn
    return traj


# _DENSE_CHUNK sizes around a run's own step count n: a last pass of one
# step, one pass that ends at the last step, one that reaches past it, and
# three full passes and a remainder
_CHUNK_EDGES = {
    "chunk-minus-one": lambda n: n - 1,
    "chunk": lambda n: n,
    "chunk-plus-one": lambda n: n + 1,
    "three-chunks-and-more": lambda n: (n - 1) // 3,
}


def _chunked(monkeypatch, run, steps, size):
    """Sets _DENSE_CHUNK to size(steps) for the run, when size is given."""
    if size is None:
        return
    chunk = size(steps)
    if run.endswith("three-chunks-and-more"):
        assert steps // chunk == 3 and steps % chunk > 0
    monkeypatch.setattr("nel.ode._DENSE_CHUNK", chunk)


_RECORD_RUNS = {
    **{f"backward-{n}": (*_backward_run(n, True)[:4], None, None)
       for n in (-3, 1, 10, 300, 4000)},
    **{f"fig1-{k}": (0.0, 0.2 * k, 24.0, None, None, None) for k in range(1, 51)},
    **{f"maxima-count-{a}": (0.0, a, _forward_span(a), None, trapped_in_even_bundle, None)
       for a in (0.3, 1.7, 3.0, 6.0)},
    "one-step": (0.0, 0.5, 1e-3, IntegratorConfig(initial_step=1e-3), None, None),
    "fig1-50-first-step-1": (0.0, 10.0, 24.0, IntegratorConfig(initial_step=1.0), None, None),
    # fig1's a = 2 run, with rejections
    **{label: (0.0, 2.0, 24.0, None, None, size) for label, size in _CHUNK_EDGES.items()},
}


@pytest.mark.parametrize("run", list(_RECORD_RUNS))
def test_dense_records_equal_per_step_build_bitwise(run, monkeypatch):
    x0, y0, x1, cfg, stop_when, size = _RECORD_RUNS[run]
    ref = _per_step_reference(rhs_unscaled, x0, y0, x1, cfg, stop_when)
    _chunked(monkeypatch, run, ref.step_count, size)
    got = integrate(rhs_unscaled, x0, y0, x1, cfg, stop_when=stop_when)
    assert bytes(got._dense) == bytes(ref._dense)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    assert got._f_end.hex() == ref._f_end.hex()
    assert (got.step_count, got.stopped) == (ref.step_count, ref.stopped)
    assert got.stopped == (stop_when is not None)
    assert got.rejected == ref.rejected
    if run == "one-step":
        assert got.step_count == 1
    if run == "fig1-50-first-step-1":
        assert got.rejected > 100


@pytest.mark.parametrize("f", [rhs_unscaled, lambda x, y: rhs_unscaled(x, y)],
                         ids=["inline", "call"])
def test_scalar_step_limit_raises_as_per_step_reference(f):
    cfg = IntegratorConfig(max_steps=10)
    with pytest.raises(StepLimitExceeded) as got:
        integrate(f, 0.0, 2.0, 20.0, cfg)
    with pytest.raises(StepLimitExceeded) as ref:
        _per_step_reference(rhs_unscaled, 0.0, 2.0, 20.0, cfg)
    assert str(got.value) == str(ref.value)


# -- the pair dense records against a per-step build --------------------------

_PAIR_RECORD_RUNS = {
    **{run: (f, x0, y0, x1, cfg, stop_when, None)
       for run, (f, x0, y0, x1, cfg, dense, stop_when) in _PAIR_RUNS.items() if dense},
    **{run: (painleve_rhs, x0, y0, x1, cfg, stop_when, None)
       for run, (x0, y0, x1, cfg, dense, stop_when) in _PAINLEVE_RUNS.items()
       if dense and run not in _PAIR_RUNS},
    "one-step": (painleve_rhs, 0.0, (1.0, 0.5), -1e-3, IntegratorConfig(initial_step=1e-3),
                 None, None),
    **{f"{name}-{label}": (*_PAIR_RUNS[base][:5], _PAIR_RUNS[base][6], size)
       for name, base in (("painleve", "painleve-to-pole"), ("oscillator", "oscillator-forward"))
       for label, size in _CHUNK_EDGES.items()},
}


@pytest.mark.parametrize("run", list(_PAIR_RECORD_RUNS))
def test_pair_dense_records_equal_per_step_build_bitwise(run, monkeypatch):
    # the pair loop stores each step's stages and builds the records after
    # its last step; _tuple_reference builds each record as it accepts the step
    f, x0, y0, x1, cfg, stop_when, size = _PAIR_RECORD_RUNS[run]
    ref = _tuple_reference(f, x0, y0, x1, cfg, True, stop_when)
    _chunked(monkeypatch, run, ref.step_count, size)
    got = integrate(f, x0, y0, x1, cfg, stop_when=stop_when)
    assert len(got._dense) == 11 * got.step_count > 0
    assert bytes(got._dense) == bytes(ref._dense)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    assert (got.step_count, got.stopped, got.rejected) == (ref.step_count, ref.stopped,
                                                           ref.rejected)
    if run == "one-step":
        assert got.step_count == 1
