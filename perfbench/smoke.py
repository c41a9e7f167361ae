"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and traced,
and checks that the result line is well formed, that every declared metric
is printed with its declared unit, and that every op was correct.  Exits 1
on the first problem.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_one(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") and result.get("attempted", 0) >= 1 and result.get("failed") == 0):
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    printed = result.get("metrics", {})
    for m in declared:
        got = printed.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_one(spec, workload, trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}", flush=True)
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
