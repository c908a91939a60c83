"""nel benchmark: one seeded workload run, end-to-end or traced.

    python3 perfbench/run.py --workload separatrix --seed 1 --seconds 12 --trace 0

Run from the repository root.  The seeded generator (workloads.py) builds
the request list; a fresh worker process (worker.py) sends it once as a
closed loop with one client and NEL_THREADS=1; checks.py checks every
output.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends
the list once untraced and once traced (tracer.py) and prints the per-layer
metrics and a report of where the time went.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.

Times are given at the reference host speed (hostspeed.py); the raw times
are saved alongside.  Each run saves its argv list, environment block,
metrics and failures to perfbench/out/<workload>-seed<seed>-trace<t>.json;
``--replay FILE`` runs the argv list saved in such a file instead of
generating one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5             # before the worker, and as many after it
RUN_BUDGET_S = 170            # every child process ends within this of the start
# A fresh interpreter importing nel.cli, every nel module and numpy.
SETUP_CODE = "import numpy, nel, nel.cli"

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["NEL_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment() -> dict:
    """Python and numpy versions, CPU count, source identity, NEL_THREADS."""
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_sha": sha, "src_sha256": digest.hexdigest(), "NEL_THREADS": "1",
            "machine": platform.machine()}


def _left(deadline: float) -> float:
    return max(1.0, deadline - perf_counter())


def measure_setup(deadline: float) -> list[float]:
    """Raw wall times of fresh interpreters doing the nel imports."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                              capture_output=True, text=True, timeout=_left(deadline))
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import of nel failed:\n{proc.stderr.strip()}")
    return samples


def execute(requests: list[list[str]], tag: str, trace: bool,
            deadline: float) -> tuple[dict, Path]:
    """Run the request list in a fresh worker; (worker result, run directory)."""
    run_dir = OUT / f"run-{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    job_path, result_path = run_dir.with_suffix(".job.json"), run_dir.with_suffix(".result.json")
    job = {"requests": requests, "run_dir": str(run_dir), "trace": trace,
           "spans_path": str(OUT / f"{tag}.spans.jsonl")}
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                               str(result_path)], env=_child_env(), capture_output=True,
                              text=True, timeout=_left(deadline))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        result = json.loads(result_path.read_text())
    finally:
        job_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)
    for i, o in enumerate(result["outcomes"]):
        speed = hostspeed.probe_around(result["probe_stamps"], result["probes_s"], i,
                                       o["t0"], o["t0"] + o["ms"] / 1e3)
        o["ref_ms"] = hostspeed.normalise(o["ms"], speed)
    return result, run_dir


def _data_files(run_dir: Path) -> dict[str, bytes]:
    # manifests carry each run's wall time, so only the data files compare
    return {p.name: p.read_bytes() for p in run_dir.iterdir()
            if not p.name.endswith(".manifest.json")}


def latency_metrics(outcomes: list[dict], key: str) -> dict:
    """wall_s is the time to finish the list: the sum of its request latencies."""
    ms = [o[key] for o in outcomes]
    return {"wall_s": sum(ms) / 1e3,
            "request_p50_ms": statistics.median(ms),
            "request_p90_ms": statistics.quantiles(ms, n=10)[8]}


def report(workload: str, layers: dict, bases: dict, wall_s: float) -> list[str]:
    """Each layer's self time as a share of the traced wall_s, and the ratios
    with their bases."""
    lines = [f"traced run of {workload}: raw wall_s {wall_s:.3f} s",
             f"  {'layer':<12}{'self_s':>10}{'share':>9}{'calls':>12}"]
    for layer, calls in bases["layer_calls"].items():
        self_s = layers[f"{layer}.self_s"]
        lines.append(f"  {layer:<12}{self_s:>10.3f}{self_s / wall_s:>9.1%}{calls:>12}")
    lines += [
        f"  ode steps accepted/attempted: {layers['ode.steps.accepted']}"
        f"/{bases['ode.steps.attempted']} = {layers['ode.steps.accept_ratio']:.4f}",
        f"  painleve.fates_per_eigenvalue: {bases['painleve.fates_in_scan']} fates"
        f" / {bases['painleve.eigenvalues_found']} eigenvalues"
        f" = {layers['painleve.fates_per_eigenvalue']:.2f}",
        f"  separatrix.bisect.iterations: {bases['separatrix.counts_in_bisection']} maxima"
        f" counts / {bases['separatrix.bisections']} bisections"
        f" = {layers['separatrix.bisect.iterations']:.2f}",
        f"  trace.overhead_s: {layers['trace.overhead_s']:.3f} s (reference speed)"]
    return lines


def bench(workload: str, seed: int, seconds: float, trace: bool,
          requests: list[list[str]] | None = None) -> tuple[dict, list[str]]:
    """(result record, human-readable lines) of one benchmark run."""
    if not (SRC / "nel" / "cli.py").is_file():
        raise BenchError(f"no nel sources under {SRC}")
    if requests is None:
        requests = workloads.generate(workload, seed, seconds)
    tag = f"{workload}-seed{seed}"
    deadline = perf_counter() + RUN_BUDGET_S
    setup = [] if trace else measure_setup(deadline)
    plain, plain_dir = execute(requests, tag, False, deadline)
    if not trace:
        setup += measure_setup(deadline)
    try:
        failures = checks.check(workload, requests, plain["outcomes"], plain_dir)
        if trace:
            traced, traced_dir = execute(requests, tag + "-traced", True, deadline)
            try:
                # tracing must not change a single output byte
                same = _data_files(traced_dir) == _data_files(plain_dir)
                failures = [
                    f or g or (None if same and t["stdout"] == p["stdout"]
                               else "traced output differs from untraced")
                    for f, g, t, p in zip(failures,
                                          checks.check(workload, requests,
                                                       traced["outcomes"], traced_dir),
                                          traced["outcomes"], plain["outcomes"])]
            finally:
                shutil.rmtree(traced_dir, ignore_errors=True)
    finally:
        shutil.rmtree(plain_dir, ignore_errors=True)

    failed = sum(1 for f in failures if f)
    lines = [f"workload {workload}, seed {seed}: {len(requests)} requests, "
             f"{failed} failed (failed_ratio {failed / len(requests):.4f})"]
    lines += [f"  request {i}: {' '.join(requests[i])}: {f}" for i, f in enumerate(failures) if f]
    raw = latency_metrics(plain["outcomes"], "ms")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "requests": requests,
              "latencies_ms": [o["ms"] for o in plain["outcomes"]],
              "probe_stamps": plain["probe_stamps"], "probes_s": plain["probes_s"],
              "failures": failures,
              "attempted": len(requests), "failed": failed,
              "failed_ratio": failed / len(requests)}
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (latency_metrics(traced["outcomes"], "ref_ms")["wall_s"]
                                       - latency_metrics(plain["outcomes"], "ref_ms")["wall_s"])
        traced_wall = latency_metrics(traced["outcomes"], "ms")["wall_s"]
        lines += report(workload, metrics, traced["bases"], traced_wall)
        record.update(bases=traced["bases"], traced_wall_s=traced_wall)
    else:
        metrics = latency_metrics(plain["outcomes"], "ref_ms")
        # The setup samples straddle the worker, so the worker's first and
        # last probes give the host speed.  Probes in this process, right
        # after a child exits, read slow and would add noise.
        edges = plain["probes_s"][:SETUP_SAMPLES] + plain["probes_s"][-SETUP_SAMPLES:]
        raw["setup_s"] = statistics.median(setup)
        metrics["setup_s"] = hostspeed.normalise(raw["setup_s"], statistics.median(edges))
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
        record.update(setup_samples_s=setup, raw_metrics=raw)
        units = _units(False)
        lines += [f"  {name} = {value!r} {units[name]}"
                  + (f" (raw {raw[name]:.6g})" if name in raw else "")
                  for name, value in metrics.items()]
        lines.append(f"  failed_ratio = {failed / len(requests)!r} "
                     f"({failed} of {len(requests)} requests)")
    record["metrics"] = metrics
    return record, lines


def _units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json asks of this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=Path, help="saved result whose argv list to run")
    args = p.parse_args(argv)

    requests = json.loads(args.replay.read_text())["requests"] if args.replay else None
    try:
        units = _units(bool(args.trace))
        record, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace), requests)
        missing = sorted(set(units) - set(record["metrics"]))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(f"saved {saved.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
