import bisect
import math
import sys
import time
from array import array
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.cosine import rhs_unscaled, trapped_in_even_bundle
from nel.ode import IntegratorConfig, NonFiniteState, StepLimitExceeded, integrate
from nel.painleve import painleve_rhs
from nel.separatrix import _backward_seed, _forward_span, backward_start

from reference import (DP_A, DP_C, DP_E, DP_P, POLE_HEIGHTS, dormand_prince, extrema,
                       laurent_poles, pole_series_eval, quartic_read)


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
    assert extrema(traj) == []


def test_find_extrema_sine():
    traj = integrate(lambda x, y: math.cos(x), 0.0, 0.0, 2 * math.pi)
    (l1, r1, k1), (l2, r2, k2) = extrema(traj)
    assert k1 == "max" and l1 < math.pi / 2 < r1
    assert k2 == "min" and l2 < 3 * math.pi / 2 < r2


def test_find_extrema_backward_direction():
    traj = integrate(lambda x, y: math.cos(x), 2 * math.pi, 0.0, 0.0)
    kinds = [k for _, _, k in extrema(traj)]
    assert kinds == ["min", "max"]  # visited in decreasing x


def test_cosine_class_one_has_single_maximum():
    # 0.5 sits between the first two separatrix intercepts, so one maximum.
    traj = integrate(lambda x, y: math.cos(math.pi * x * y), 0.0, 0.5, 12.0)
    assert sum(1 for _, _, k in extrema(traj) if k == "max") == 1


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
    reads = [quartic_read(traj, x) for x in xs]
    assert (_bits(got) == _bits([v for (v,), _ in reads])).all()
    assert (_bits(traj.slope(xs)) == _bits([s for _, (s,) in reads])).all()


def _reads_equal_reference(got, ref):
    """got's reads at every node and at th = 1/4, 1/2, 3/4 of each step equal
    the reference reads of ref's records, bit for bit: values, and derivatives
    of a scalar trajectory."""
    xs, steps = [], []
    for i in range(len(got.xs) - 1):
        a, b = got.xs[i], got.xs[i + 1]
        xs += [a] + [a + (b - a) * frac for frac in (0.25, 0.5, 0.75)]
        steps += [i] * 4
    xs.append(got.xs[-1])
    steps.append(len(got.xs) - 2)
    reads = [quartic_read(ref, x, i) for i, x in zip(steps, xs)]
    assert (_bits(got.sample(xs)).reshape(len(xs), -1) == _bits([v for v, _ in reads])).all()
    if got.dim == 1:
        assert (_bits(got.slope(xs)) == _bits([s for _, (s,) in reads])).all()


def test_sample_vector_trajectory_matches_layout_and_nodes():
    traj = integrate(lambda x, y: (y[1], -y[0]), 3.0, (1.0, 0.0), -5.0)
    xs = list(traj.xs) + [3.0 - 8.0 * k / 97 for k in range(98)]
    got = traj.sample(xs)
    assert got.shape == (len(xs), 2)
    assert (_bits(got) == _bits([quartic_read(traj, x)[0] for x in xs])).all()
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


# -- the pair stepper against the reference loop -------------------------------

def _raised(info):
    # the reference raises classes of its own, of the same names as nel.ode's
    return type(info.value).__name__, str(info.value)


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
    ref = dormand_prince(f, x0, y0, x1, cfg, dense, stop_when)
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
    # y = tan x: the rejected steps shrink until they no longer move x
    (NonFiniteState, lambda x, y: (1.0 + y[0] * y[0], 0.0), (0.0, 0.0), None),
    (NonFiniteState, lambda x, y: (1e308, 0.0), (1.0, 1.0), None),
], ids=["initial", "overflow", "budget", "underflow", "initial-step"])
def test_pair_stepper_raises_as_tuple_reference(error, f, y0, cfg):
    with pytest.raises(error) as got:
        integrate(f, 0.0, y0, 50.0, cfg)
    with pytest.raises(RuntimeError) as ref:
        dormand_prince(f, 0.0, y0, 50.0, cfg)
    assert _raised(ref) == _raised(got)


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
    y0 = _backward_seed(n, x_start)     # the odd-bundle strip seed
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


# -- scalar runs without dense output keep only their two ends ---------------

_END_RUNS = {
    "inline-fig1-25": (rhs_unscaled, 0.0, 5.0, 24.0, None),
    "generic-callable": (lambda x, y: math.sin(x * y) - 0.1 * y, 0.0, 2.0, 30.0, None),
    "stopped-maxima-count-3.0": (rhs_unscaled, 0.0, 3.0, _forward_span(3.0),
                                 trapped_in_even_bundle),
    # the traces of eigen --method backward
    **{f"backward-{n}": (rhs_unscaled, *_backward_run(n, False)[:3], None)
       for n in (-3, 0, 7, 100, 1000, 4000)},
}


@pytest.mark.parametrize("run", list(_END_RUNS))
def test_run_without_dense_output_keeps_its_two_ends(run):
    f, x0, y0, x1, stop_when = _END_RUNS[run]
    full = integrate(f, x0, y0, x1, dense=True, stop_when=stop_when)
    ends = integrate(f, x0, y0, x1, dense=False, stop_when=stop_when)
    assert (ends.x_end.hex(), ends.y_end.hex()) == (full.x_end.hex(), full.y_end.hex())
    assert (ends.step_count, ends.rejected, ends.rhs_evals, ends.stopped) == \
        (full.step_count, full.rejected, full.rhs_evals, full.stopped)
    assert full.step_count == len(full.xs) - 1 > 1
    assert full.rejected > 0 or run == "backward-0"        # n = 0 rejects no attempt
    assert full.stopped == (stop_when is not None)
    assert bytes(ends.xs) == bytes(array("d", [x0, full.x_end]))
    assert bytes(ends._ys) == bytes(array("d", [y0, full.y_end]))
    assert ends._dense is None


# -- grid reads: a scalar run that keeps only the steps its abscissae fall in --

_GRID_RUNS = {
    **{f"backward-{n}": (rhs_unscaled, *_backward_run(n, True)[:4])
       for n in (-3, 1, 3, 300)},
    "fig1-25": (rhs_unscaled, 0.0, 5.0, 24.0, None),
    "generic-callable": (lambda x, y: math.sin(x * y) - 0.1 * y, 0.0, 2.0, 30.0, None),
    "one-step": (rhs_unscaled, 0.0, 0.5, 1e-3, IntegratorConfig(initial_step=1e-3)),
}


def _grid_of(full):
    """Abscissae of every kind: each node of the dense run (a node reads the
    step it starts at th = 0, the end node the last step at th = 1), both
    ends again, nine points inside every third step (several to a step),
    and points spread over the span, shuffled with repeats."""
    nodes = list(full.xs)
    inside = [a + (b - a) * k / 10 for a, b in list(zip(nodes, nodes[1:]))[::3]
              for k in range(1, 10)]
    spread = [nodes[0] + (nodes[-1] - nodes[0]) * ((7919 * k) % 1000) / 999
              for k in range(1000)]
    xs = nodes + inside + spread + [nodes[-1], nodes[0], nodes[len(nodes) // 2]]
    return [xs[(7 * k) % len(xs)] for k in range(len(xs))] + xs[::-1]


def _records(traj):
    return np.frombuffer(traj._dense, dtype=float).reshape(-1, 3 + 7 * traj.dim)


@pytest.mark.parametrize("run", list(_GRID_RUNS))
def test_grid_reads_equal_dense_reads_and_reference_bitwise(run):
    f, x0, y0, x1, cfg = _GRID_RUNS[run]
    full = integrate(f, x0, y0, x1, cfg)
    xs = _grid_of(full)
    got = integrate(f, x0, y0, x1, cfg, dense=np.array(xs))
    values = got.sample(xs)
    assert values.shape == (len(xs),)
    assert (_bits(values) == _bits(full.sample(xs))).all()
    ref = dormand_prince(f, x0, y0, x1, cfg)
    # the step of x: the last node at or before it, the end node's the last step
    keys = [x * full.direction for x in ref.xs]
    steps = [min(bisect.bisect_right(keys, x * full.direction) - 1, len(keys) - 2) for x in xs]
    reads = [quartic_read(ref, x, i)[0][0] for x, i in zip(xs, steps)]
    assert (_bits(values) == _bits(reads)).all()
    # a list keeps the same records; the run is the dense run, which keeps
    # the records of the steps its abscissae fall in and the two ends
    listed = integrate(f, x0, y0, x1, cfg, dense=xs)
    assert bytes(listed._dense) == bytes(got._dense)
    assert bytes(got._dense) == _records(full)[sorted(set(steps))].tobytes()
    ends = integrate(f, x0, y0, x1, cfg, dense=False)
    assert bytes(got.xs) == bytes(ends.xs) and bytes(got._ys) == bytes(ends._ys)
    assert (got.step_count, got.rejected, got.rhs_evals, got.stopped) == \
        (full.step_count, full.rejected, full.rhs_evals, False)


@pytest.mark.parametrize("run", ["backward-3", "fig1-25", "generic-callable"])
def test_grid_run_refuses_reads_in_steps_it_did_not_keep(run):
    # abscissae in every fourth step from the third on: the steps between
    # two kept ones, and the first two and the last two, hold none
    f, x0, y0, x1, cfg = _GRID_RUNS[run]
    full = integrate(f, x0, y0, x1, cfg)
    nodes = list(full.xs)
    mids = [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]
    kept = list(range(2, len(mids) - 2, 4))
    got = integrate(f, x0, y0, x1, cfg, dense=[mids[i] for i in kept])
    assert bytes(got._dense) == _records(full)[kept].tobytes()
    # a kept step reads up to its right end, from its own record
    k = kept[0]
    assert got(nodes[k + 1]).hex() == quartic_read(full, nodes[k + 1], k)[0][0].hex()
    for i in sorted(set(range(len(mids))) - set(kept)):
        with pytest.raises(ValueError):
            got.sample([mids[k], mids[i]])
    for x in (x0, x1, math.nan):
        with pytest.raises(ValueError):
            got.slope([x])


def test_grid_read_of_no_abscissae_is_empty():
    got = integrate(rhs_unscaled, 0.0, 1.0, 3.0, dense=[])
    assert len(got._dense) == 0
    assert got.sample([]).shape == (0,)
    assert got.step_count == integrate(rhs_unscaled, 0.0, 1.0, 3.0).step_count
    # a run that kept no step has no abscissa to read
    for x in (0.0, 1.5, 3.0, math.nan):
        with pytest.raises(ValueError):
            got.sample([x])


# -- one record layout for every dense run -----------------------------------

_LAYOUT_RUNS = {
    "scalar-forward": (rhs_unscaled, 0.0, 5.0, 24.0, None, True),
    "scalar-backward": (rhs_unscaled, *_backward_run(10, True)[:3], None, True),
    "scalar-stopped": (rhs_unscaled, 0.0, 3.0, _forward_span(3.0), trapped_in_even_bundle, True),
    "grid-forward": (rhs_unscaled, 0.0, 5.0, 24.0, None, [20.0, 0.5, 3.0, 24.0, 0.0, 7.7]),
    "grid-backward": (rhs_unscaled, *_backward_run(10, True)[:3], None, [0.0, 3.3, 1.0, 2.2]),
    "pair-forward": (_oscillator, 0.0, (1.0, 0.0), 20.0, None, True),
    "pair-backward": (painleve_rhs, 0.0, (1.0, 5.0), -30.0, lambda x, y: abs(y[0]) > 1e3,
                      True),
}


@pytest.mark.parametrize("run", list(_LAYOUT_RUNS))
def test_every_dense_run_keeps_one_record_layout(run):
    f, x0, y0, x1, stop_when, dense = _LAYOUT_RUNS[run]
    traj = integrate(f, x0, y0, x1, dense=dense, stop_when=stop_when)
    dim, d = traj.dim, traj.direction
    assert len(traj._dense) % (3 + 7 * dim) == 0
    rec = _records(traj)
    x_left, x_right = rec[:, 0], rec[:, 1]
    assert len(rec) > 1 and (np.diff(x_left * d) > 0).all()
    assert ((x_right - x_left) * d > 0).all()
    if dense is not True:
        assert len(rec) <= len(dense)
        return
    y_left = rec[:, 2:2 + dim]
    k1, k7 = rec[:, 3 + dim:3 + 2 * dim], rec[:, 3 + 6 * dim:]
    assert len(rec) == traj.step_count == len(traj.xs) - 1
    assert x_left.tobytes() == bytes(traj.xs[:-1])
    assert x_right.tobytes() == bytes(traj.xs[1:])
    assert x_right[:-1].tobytes() == x_left[1:].tobytes()
    assert x_right[-1].hex() == traj.x_end.hex()
    assert y_left.tobytes() == bytes(traj._ys[:-dim])
    assert k7[:-1].tobytes() == k1[1:].tobytes()


@pytest.mark.parametrize("x0, y0, x1, xs, stop", [
    (0.0, 1.0, 2.0, [1.0, -0.1], False),
    (0.0, 1.0, 2.0, [2.0000001], False),
    (0.0, 1.0, 2.0, [0.5, math.nan], False),
    (2.0, 0.1, 0.0, [-0.1], False),
    (2.0, 0.1, 0.0, [1.0, 2.0000001], False),
    (2.0, 0.1, 0.0, [math.nan], False),
    (0.0, 1.0, 2.0, [[0.5, 1.0]], False),
    (0.0, (0.0, 1.0), 1.0, [0.5], False),
    (0.0, 1.0, 2.0, [0.5], True),
], ids=["below", "above", "nan", "backward-below", "backward-above", "backward-nan",
        "two-dimensional", "pair", "stop-when"])
def test_grid_read_rejects_bad_abscissae_before_any_step(x0, y0, x1, xs, stop):
    field = (lambda x, y: -y) if isinstance(y0, float) else _oscillator
    rhs, calls = _counted(field)
    with pytest.raises(ValueError):
        integrate(rhs, x0, y0, x1, dense=xs, stop_when=(lambda x, y: False) if stop else None)
    assert calls == []


# -- the inline Painleve-I field against the call route -----------------------

def _past_first_pole(a):
    # where the reference Laurent route restarts past the first pole, when
    # it matches at 40
    x0, h = laurent_poles(a, -30.0)[0]
    x = x0 - math.sqrt(6.0 / POLE_HEIGHTS[1])
    return x, pole_series_eval(x0, h, x)


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


# -- the scalar loop against the reference loop on 1-tuples -------------------

_RECORD_RUNS = {
    **{f"backward-{n}": (*_backward_run(n, True)[:4], None)
       for n in (-3, 1, 10, 300, 4000)},
    **{f"fig1-{k}": (0.0, 0.2 * k, 24.0, None, None) for k in range(1, 51)},
    **{f"maxima-count-{a}": (0.0, a, _forward_span(a), None, trapped_in_even_bundle)
       for a in (0.3, 1.7, 3.0, 6.0)},
    "one-step": (0.0, 0.5, 1e-3, IntegratorConfig(initial_step=1e-3), None),
    "fig1-50-first-step-1": (0.0, 10.0, 24.0, IntegratorConfig(initial_step=1.0), None),
}


@pytest.mark.parametrize("run", list(_RECORD_RUNS))
def test_dense_records_equal_per_step_build_bitwise(run):
    # the step records, ends and counts equal the reference's, and every
    # read equals the quartic built from its records one step at a time
    x0, y0, x1, cfg, stop_when = _RECORD_RUNS[run]
    ref = dormand_prince(rhs_unscaled, x0, y0, x1, cfg, True, stop_when)
    got = integrate(rhs_unscaled, x0, y0, x1, cfg, stop_when=stop_when)
    assert bytes(got._dense) == bytes(ref._dense)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    assert (got.step_count, got.stopped) == (ref.step_count, ref.stopped)
    assert got.stopped == (stop_when is not None)
    assert got.rejected == ref.rejected
    _reads_equal_reference(got, ref)
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
    with pytest.raises(RuntimeError) as ref:
        dormand_prince(rhs_unscaled, 0.0, 2.0, 20.0, cfg)
    assert _raised(ref) == _raised(got)


# -- the pair loop against the reference loop, reads included ----------------

_PAIR_RECORD_RUNS = {
    **{run: (f, x0, y0, x1, cfg, stop_when)
       for run, (f, x0, y0, x1, cfg, dense, stop_when) in _PAIR_RUNS.items() if dense},
    **{run: (painleve_rhs, x0, y0, x1, cfg, stop_when)
       for run, (x0, y0, x1, cfg, dense, stop_when) in _PAINLEVE_RUNS.items()
       if dense and run not in _PAIR_RUNS},
    "one-step": (painleve_rhs, 0.0, (1.0, 0.5), -1e-3, IntegratorConfig(initial_step=1e-3),
                 None),
}


@pytest.mark.parametrize("run", list(_PAIR_RECORD_RUNS))
def test_pair_dense_records_equal_per_step_build_bitwise(run):
    # the pair loop stores each step's record as the reference does, and
    # every read equals the quartic built from those records one step at a time
    f, x0, y0, x1, cfg, stop_when = _PAIR_RECORD_RUNS[run]
    ref = dormand_prince(f, x0, y0, x1, cfg, True, stop_when)
    got = integrate(f, x0, y0, x1, cfg, stop_when=stop_when)
    assert len(got._dense) == 17 * got.step_count > 0
    assert bytes(got._dense) == bytes(ref._dense)
    assert bytes(got.xs) == bytes(ref.xs)
    assert bytes(got._ys) == bytes(ref._ys)
    assert (got.step_count, got.stopped, got.rejected) == (ref.step_count, ref.stopped,
                                                           ref.rejected)
    _reads_equal_reference(got, ref)
    if run == "one-step":
        assert got.step_count == 1


# -- the reference tableau in exact arithmetic --------------------------------

def _trees(order):
    """The rooted trees with ``order`` vertices, each written as the sorted
    tuple of its root's subtrees."""
    if order == 1:
        return [()]
    return sorted({tuple(sorted((*rest, sub))) for k in range(1, order)
                   for sub in _trees(k) for rest in _trees(order - k)})


def _gamma(tree):
    """(order, density gamma) of a tree."""
    order, gamma = 1, 1
    for sub in tree:
        o, g = _gamma(sub)
        order, gamma = order + o, gamma * g
    return order, gamma * order


def _phi(tree, a):
    """The elementary weight Phi_i of the tree at each stage i of a."""
    phi = [Fraction(1)] * len(a)
    for sub in tree:
        inner = _phi(sub, a)
        phi = [p * sum(w * q for w, q in zip(row, inner)) for p, row in zip(phi, a)]
    return phi


def _weigh(weights, phi):
    return sum(w * p for w, p in zip(weights, phi))


def test_reference_tableau_meets_the_order_conditions():
    # exact, so the floats of both step loops, which equal the reference's
    # bit for bit, are the correctly rounded Dormand-Prince coefficients
    a = [[Fraction(0)] * 7] + [[*row, *[Fraction(0)] * (7 - len(row))] for row in DP_A]
    b = a[6]                                      # stage 7 is evaluated at the new sample
    assert [sum(row) for row in a] == list(DP_C)
    trees = [t for order in range(1, 6) for t in _trees(order)]
    assert [_gamma(t)[0] for t in trees] == [1, 2, 3, 3] + [4] * 4 + [5] * 9
    for t in trees:
        order, gamma = _gamma(t)
        phi = _phi(t, a)
        assert _weigh(b, phi) == Fraction(1, gamma)
        # b - b_hat: the embedded solution is of order 4 exactly
        assert (_weigh(DP_E, phi) == 0) == (order <= 4)
        if order <= 4:
            # sum_s b_s(theta) Phi_s = theta^order / gamma, power by power
            assert [_weigh(power, phi) for power in zip(*DP_P)] == \
                [Fraction(j == order, gamma) for j in range(1, 5)]
    # at theta = 1 the dense output ends on the step's sample with slope k7
    assert [sum(row) for row in DP_P] == b
    assert [sum(j * p for j, p in enumerate(row, 1)) for row in DP_P] == [0] * 6 + [1]
    assert not any(DP_P[1])                        # stage 2 has no dense weight
