"""One workload run in a fresh process: a closed loop with one client.

Usage: python3 worker.py JOB.json RESULT.json

JOB.json holds the request list, the run directory (the working directory
for the requests, so their relative --out paths land there) and whether to
trace.  Each request is one ``nel.cli.main(argv)`` call, sent only after the
previous one returned; its latency, stdout and stderr are captured.  The
host-speed probe runs before the first request and after every request,
outside the request timings.  Imports happen before the first request.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracer as tracing


def _probe(stamps: list[float], probes: list[float], min_s: float = 0.0) -> None:
    stamps.append(perf_counter())
    probes.append(hostspeed.probe(min_s))


def run(requests: list[list[str]], tracer=None) -> tuple[list[dict], list[float], list[float]]:
    """(per-request outcomes, start times and durations of the host-speed
    probes: one before the first request and one after each)."""
    from nel import cli

    outcomes, stamps, probes = [], [], []
    _probe(stamps, probes)
    for i, argv in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:                     # noqa: BLE001 - record, go on
                traceback.print_exc()
                code = -1
        ms = 1e3 * (perf_counter() - t0)
        _probe(stamps, probes, hostspeed.PROBE_SHARE * ms / 1e3)
        outcomes.append({"code": code, "t0": t0, "ms": ms,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return outcomes, stamps, probes


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    run_dir = Path(job["run_dir"])
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import nel.cli  # noqa: F401 - import cost stays outside the timed region

    os.chdir(run_dir)
    outcomes, stamps, probes = run(job["requests"], tracer)
    result = {"outcomes": outcomes, "probe_stamps": stamps, "probes_s": probes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        layers, bases = tracing.layer_metrics(tracer)
        layers["cli.bytes_written"] = (
            sum(p.stat().st_size for p in run_dir.iterdir())
            + sum(len(o["stdout"].encode()) for o in outcomes))
        result["layers"], result["bases"] = layers, bases
        tracer.write_spans(job["spans_path"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
