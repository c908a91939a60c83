"""Self-test of the benchmark's output checks: corrupted outputs must fail.

    python3 perfbench/selftest.py

For each workload it sends a small seeded request list once, requires every
output to pass, then corrupts one output file in two ways (a wrong value,
then an empty file) and requires failed_ratio > 0 after each.  Exits 0 when
the checks caught every corruption.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time

import checks
import run
import workloads


def _bump_limit(text: str) -> str:
    payload = json.loads(text)
    payload["limit"] += 1e-4
    return json.dumps(payload)


def _flip_fate(text: str) -> str:
    payload = json.loads(text)
    payload["lock"] = "oscillatory" if payload["lock"] == "pole_chain" else "pole_chain"
    return json.dumps(payload)


def _raise_peak(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    peak = max(rows[1:], key=lambda r: float(r[1]))
    peak[1] = repr(float(peak[1]) * 1.001)
    return "\n".join(",".join(r) for r in rows) + "\n"


def _shift_fig2_origin(text: str) -> str:
    # the first x = 0 row belongs to n = -3; nudge its y value
    return re.sub(r"^(-3,[^,]+,0,)([^\n]+)$", lambda m: m.group(1) + "-3.2",
                  text, count=1, flags=re.M)


# workload -> (which output file to corrupt, its wrong-value corruption)
CORRUPTIONS = {
    "separatrix": (lambda name: name == "a_constant.json", _bump_limit),
    "painleve": (lambda name: name.endswith("_fate.json"), _flip_fate),
    "pseries": (lambda name: name == "scan.csv", _raise_peak),
    "datasets": (lambda name: name.endswith("_fig2.csv"), _shift_fig2_origin),
}


def failed_ratio(workload, requests, result, run_dir) -> float:
    failures = checks.check(workload, requests, result["outcomes"], run_dir)
    return sum(1 for f in failures if f) / len(failures)


def selftest(workload: str) -> list[str]:
    """Problems found; empty when the checks behave."""
    requests = workloads.generate(workload, seed=1, seconds=2)
    result, run_dir = run.execute(requests, f"selftest-{workload}", False,
                                  time.perf_counter() + run.RUN_BUDGET_S)
    problems = []
    try:
        clean = failed_ratio(workload, requests, result, run_dir)
        if clean != 0:
            problems.append(f"clean outputs give failed_ratio {clean}")
        picks, corrupt = CORRUPTIONS[workload]
        target = next(p for p in sorted(run_dir.iterdir()) if picks(p.name))
        original = target.read_text()
        for label, text in (("wrong value", corrupt(original)), ("empty file", "")):
            if text == original:
                problems.append(f"{label}: corruption left {target.name} unchanged")
                continue
            target.write_text(text)
            ratio = failed_ratio(workload, requests, result, run_dir)
            if not ratio > 0:
                problems.append(f"{label} in {target.name} not caught")
            target.write_text(original)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return problems


def main() -> int:
    bad = 0
    for workload in workloads.WORKLOADS:
        problems = selftest(workload)
        bad += bool(problems)
        print(f"{workload}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
