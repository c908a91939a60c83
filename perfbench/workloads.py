"""Seeded request generator for the nel benchmark.

A request is one ``nel.cli.main(argv)`` argument list.  Every draw is
stratified (one draw per equal-width bin), so every seed costs about the
same.  Request counts are sized so that a run at ``NOMINAL_SECONDS`` sends
requests for about that long on a 2-core machine; they scale linearly with
``--seconds``.  The fixed requests (one eigenvalue scan, one extrapolation,
one tau scan) are always present.  Requests of like cost are spread over the
run, so that no passing slowdown of the host meets them all together: the
datasets list repeats in rounds, the others are shuffled.  Output files are
named relative to the run directory, which is the worker's working
directory, so the saved argv lists replay exactly.
"""

from __future__ import annotations

import math
import random

NOMINAL_SECONDS = 12

# Criterion 9: the published Painleve-I eigenvalues a_1..a_12 (y(0) = 1).
PAINLEVE_PUBLISHED = (0.231955, 3.980669, 6.257998, 8.075911, 9.654843,
                      11.078201, 12.389217, 13.613878, 14.769304, 15.867511,
                      16.917331, 17.925488)
FATE_RANGE = (0.0, 18.0)
FATE_CLEARANCE = 1e-3        # fates are drawn at least this far from an a_n

SCAN_STEP = 0.0005           # the fig8 tau step
SCAN_POINTS = 300
SCAN_PEAK_TAU = 0.378        # criterion 12: location of the largest maximum

WORKLOADS = ("separatrix", "painleve", "pseries", "datasets")


def _count(nominal: int, scale: float, least: int = 1) -> int:
    return max(least, round(nominal * scale))


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of `count` equal-width bins of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def stratified_ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """Stratified integers in lo..hi inclusive."""
    return [min(hi, int(v)) for v in stratified(rng, lo, hi + 1, count)]


def _separatrix(rng: random.Random, scale: float) -> list[list[str]]:
    n_backward = _count(120, scale, least=2)
    # k + 4 is log-uniform over 1..4004, so k covers -3..4000
    ks = [min(4000, round(math.exp(u)) - 4)
          for u in stratified(rng, 0.0, math.log(4004.0), n_backward)]
    reqs = [["eigen", "--n", str(k), "--method", "backward",
             "--out", f"r{i:03d}_backward.json"] for i, k in enumerate(ks)]
    for i, k in enumerate(stratified_ints(rng, 1, 10, _count(6, scale))):
        reqs.append(["eigen", "--n", str(k), "--method", "both",
                     "--out", f"r{i:03d}_both.json"])
    reqs.append(["extrapolate", "--target", "a-constant", "--out", "a_constant.json"])
    rng.shuffle(reqs)
    return reqs


def _fate_draw(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        a = lo + rng.random() * (hi - lo)
        if all(abs(a - e) >= FATE_CLEARANCE for e in PAINLEVE_PUBLISHED):
            return a


def _painleve(rng: random.Random, scale: float) -> list[list[str]]:
    count = _count(120, scale, least=2)
    lo, hi = FATE_RANGE
    width = (hi - lo) / count
    reqs = []
    for i in range(count):
        a = _fate_draw(rng, lo + i * width, lo + (i + 1) * width)
        reqs.append(["painleve", "fate", "--a", repr(a), "--out", f"r{i:03d}_fate.json"])
    reqs.append(["painleve", "eigen", "--count", "2", "--out", "eigen.json"])
    rng.shuffle(reqs)
    return reqs


def _pseries(rng: random.Random, scale: float) -> list[list[str]]:
    count = _count(400, scale, least=2)
    taus = stratified(rng, 0.0, 1.0, count)
    degrees = stratified_ints(rng, 20, 100, count)
    rng.shuffle(degrees)
    reqs = [["pseries", "rho", "--tau-value", repr(t), "--n", str(d)]
            for t, d in zip(taus, degrees)]
    # A fig8-lattice window of SCAN_POINTS + 1 points holding the peak,
    # with at least 20 points on either side of it.
    peak = round(SCAN_PEAK_TAU / SCAN_STEP)
    start = rng.randint(peak - SCAN_POINTS + 20, peak - 20)
    lo, hi = start * SCAN_STEP, (start + SCAN_POINTS) * SCAN_STEP
    reqs.append(["pseries", "scan", "--tau", f"{lo:.4f}:{hi:.4f}:{SCAN_STEP}",
                 "--n", "50", "--out", "scan.csv"])
    rng.shuffle(reqs)
    return reqs


def _datasets(rng: random.Random, scale: float) -> list[list[str]]:
    rounds = _count(6, scale)
    fig4_n = stratified_ints(rng, 2000, 10000, rounds)
    grids = stratified_ints(rng, 501, 4001, rounds)
    # the partial sum holds a grid x n_terms matrix, the run's largest array
    terms = stratified_ints(rng, 200, 600, rounds)
    # nearer a_2 = 3.98 the phase fit drifts past criterion 11's 0.5 %
    env_a = stratified(rng, 0.5, 3.0, rounds)
    for column in (fig4_n, grids, terms, env_a):
        rng.shuffle(column)
    reqs = []
    for r in range(rounds):
        for fig in ("fig1", "fig2", "fig3", "fig5", "fig7"):
            reqs.append(["figures", fig, "--out", f"r{r}_{fig}.csv"])
        reqs += [
            ["figures", "fig4", "--n", str(fig4_n[r]), "--out", f"r{r}_fig4.csv"],
            ["limiting-curve", "--grid", str(grids[r]), "--out", f"r{r}_limit.csv"],
            ["fourier", "--n-terms", str(terms[r]), "--out", f"r{r}_fourier.csv"],
            ["painleve", "envelope", "--a", repr(env_a[r]), "--out", f"r{r}_envelope.json"],
        ]
    return reqs


_GENERATORS = {"separatrix": _separatrix, "painleve": _painleve,
               "pseries": _pseries, "datasets": _datasets}


def generate(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The seeded request list of one workload run."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, seconds / NOMINAL_SECONDS)
