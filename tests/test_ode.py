import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.cosine import rhs_unscaled
from nel.ode import (IntegratorConfig, NonFiniteState, StepLimitExceeded,
                     find_extrema, integrate)
from nel.separatrix import _forward_span


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
    # y' = 1 + y^2 blows up at x = pi/2 (tan); overflow -> NonFiniteState,
    # or the shrinking steps exhaust the budget first.
    cfg = IntegratorConfig(max_steps=100_000)
    with pytest.raises((NonFiniteState, StepLimitExceeded)):
        integrate(lambda x, y: 1.0 + y * y, 0.0, 0.0, 3.0, cfg)


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
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=-1.0)


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
    xs, fs = traj.xs, traj._fs
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
    # the forward span that maxima_count reads, on both sides of a_1..a_4
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
