"""Host-speed probe: a fixed pure-Python kernel timed between requests.

On a shared host the same request can take 1.6x longer in a slow phase that
lasts tens of seconds, and a small stepper loop written like nel's slows by
nearly the same factor.  The probe runs before the first request and after
each one; a request's latency is divided by the mean probe time around it
and multiplied by REFERENCE_S, which gives the latency at the reference host
speed.  The kernel never touches nel, so a change to nel moves the
normalised time exactly as it moves the raw time.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

# The probe's time on the reference host: 2-core x86-64, Python 3.11.7,
# in its fast phase.  Only a unit scale: comparisons between two commits
# measured by the same benchmark do not depend on it.
REFERENCE_S = 0.35e-3
_MIN_REPEATS = 3
# After a request the probe runs for this share of its duration, and a
# request of NEAR_S or longer is set against every probe within REACH of
# its own durations: a long request meets a long stretch of host speed.  A
# shorter one takes only its two adjacent probes, because the host's speed
# changes within tens of milliseconds.
PROBE_SHARE = 0.05
NEAR_S = 0.03
REACH = 4.0


def _slope(x: float, y: float) -> float:
    return math.cos(math.pi * x * y)


def _kernel() -> float:
    """Classical RK4 steps of y' = cos(pi x y) that store their samples: the
    calls, float arithmetic and array appends nel's steppers make.  Nothing
    it allocates is tracked by the garbage collector, so no collection
    lands inside a probe."""
    xs, ys = array("d"), array("d")
    x, y, h = 0.0, 1.0, 0.01
    for _ in range(500):
        k1 = _slope(x, y)
        k2 = _slope(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = _slope(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = _slope(x + h, y + h * k3)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h
        xs.append(x)
        ys.append(y)
    return ys[-1]


def probe(min_s: float = 0.0) -> float:
    """Mean time of the kernel over at least three runs and at least `min_s`
    seconds: the average speed a request sees, not the best moment."""
    t0 = perf_counter()
    runs = 0
    while runs < _MIN_REPEATS or perf_counter() - t0 < min_s:
        _kernel()
        runs += 1
    return (perf_counter() - t0) / runs


def normalise(raw: float, probe_s: float) -> float:
    """`raw` at the reference host speed, given the host's probe time."""
    return raw * REFERENCE_S / probe_s


def probe_around(stamps: list[float], probes: list[float], i: int, start: float,
                 end: float) -> float:
    """Mean probe time around request i, which ran from `start` to `end`
    between probes i and i + 1: those two and, for a request of NEAR_S or
    longer, every other probe started within REACH durations of it."""
    reach = REACH * (end - start) if end - start >= NEAR_S else 0.0
    lo, hi = i, i + 1
    while lo > 0 and stamps[lo - 1] >= start - reach:
        lo -= 1
    while hi + 1 < len(stamps) and stamps[hi + 1] <= end + reach:
        hi += 1
    return sum(probes[lo:hi + 1]) / (hi + 1 - lo)
