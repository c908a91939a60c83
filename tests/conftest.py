"""Session-scoped fixtures for computations shared across test modules."""

import contextlib
import json
import signal
import time

import pytest


@pytest.fixture
def deadline():
    """deadline(s): a context that raises TimeoutError in a run still going
    after s seconds, so that a hang fails its test instead of stalling the run."""
    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within


@pytest.fixture(scope="session")
def scaled_eta_pair():
    """Energy-balance checks at t = 0.5 for indices 50 and 100."""
    from nel.limitcurve import eta_balance_envelope, eta_consistency_check

    e50 = eta_consistency_check(50, 0.5)
    e100 = eta_consistency_check(100, 0.5)
    env50 = eta_balance_envelope(50, 0.5)
    env100 = eta_balance_envelope(100, 0.5)
    return e50, e100, env50, env100


@pytest.fixture(scope="session")
def reference_table(tmp_path_factory):
    """The records of `nel eigen --n=-3:6 --method both` (backward-traced
    intercepts, bisection residuals for n >= 1) plus elapsed wall time."""
    from nel.cli import main

    out = tmp_path_factory.mktemp("reference") / "eigen.json"
    t0 = time.perf_counter()
    assert main(["eigen", "--n=-3:6", "--method", "both", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    return json.loads(out.read_text()), elapsed


@pytest.fixture(scope="session")
def cross_method_10():
    """(bisect, backward) intercept pairs for n = 1..10."""
    from nel.separatrix import find_eigenvalue_bisect, trace_separatrix_backward

    return {n: (find_eigenvalue_bisect(n), trace_separatrix_backward(n, dense=False).y_end)
            for n in range(1, 11)}


@pytest.fixture(scope="session")
def geometric_intercepts():
    """Backward intercepts at n = 125 * 2^k, k = 0..4."""
    from nel.separatrix import trace_separatrix_backward

    return {n: trace_separatrix_backward(n, dense=False).y_end
            for n in (125, 250, 500, 1000, 2000)}


@pytest.fixture(scope="session")
def painleve_eigs12():
    """First twelve Painleve eigenvalues plus elapsed wall time."""
    from nel.painleve import painleve_eigenvalues

    t0 = time.perf_counter()
    eigs = painleve_eigenvalues(12)
    return eigs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fig8_scan():
    """rho_50 on the fig8 grid tau = 0, 0.0005, ..., 1."""
    from nel.pseries import tau_scan

    return tau_scan(0.0, 1.0, 0.0005, 50)
