"""Session-scoped fixtures for computations shared across test modules."""

import contextlib
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
def reference_table():
    """Backward-traced intercepts for n = -3..6 plus elapsed wall time."""
    from nel.separatrix import eigenvalue_table

    t0 = time.perf_counter()
    table = eigenvalue_table(range(-3, 7))
    return table, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cross_method_10():
    """(bisect, backward) intercept pairs for n = 1..10."""
    from nel.separatrix import find_eigenvalue_bisect, trace_separatrix_backward

    out = {}
    for n in range(1, 11):
        b = find_eigenvalue_bisect(n).a_n
        t, _ = trace_separatrix_backward(n, dense=False)
        out[n] = (b, t.a_n)
    return out


@pytest.fixture(scope="session")
def geometric_intercepts():
    """Backward intercepts at n = 125 * 2^k, k = 0..4."""
    from nel.separatrix import trace_separatrix_backward

    idx = (125, 250, 500, 1000, 2000)
    vals = {}
    for n in idx:
        rec, _ = trace_separatrix_backward(n, dense=False)
        vals[n] = rec.a_n
    return vals


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
