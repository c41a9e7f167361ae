"""Benchmark entry point: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload limits_sweep --seed 0 --seconds 24 --trace 0

Workloads and metrics are declared in BENCHMARK.json; perfbench/README.md
says why each was chosen.  --trace 0 prints the end-to-end metrics and
--trace 1 the per-layer metrics of a traced run.  Each workload runs in its
own fresh process (perfbench/worker.py) that imports `fblimits` from this
checkout's src/.  setup_s is the median, over SETUP_SAMPLES fresh processes,
of the wall time from spawning the interpreter to the worker being ready for
its first op (import plus building the workload's inputs).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the machine settings and the
sample counts.  Exits non-zero without a result if the checkout has no
src/fblimits or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3  # fresh processes timed to ready, the workload's own included
WORKER_TIMEOUT_S = 150


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _spawn(args, extra=()) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    events = {e["event"]: e for e in map(json.loads, out.splitlines())}
    return events["ready"]["t"] - t0, events.get("result")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one fblimits benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fblimits", "__init__.py")):
        return _fail(f"no src/fblimits package under {ROOT}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        ready = [_spawn(args, ["--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0)]
        worker_ready, result = _spawn(args)
    except (RuntimeError, KeyError, ValueError) as exc:
        return _fail(str(exc))
    ready.append(worker_ready)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(ready)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return _fail(f"worker did not report {missing}")
    print("meta " + json.dumps(result["meta"]))
    print("samples " + json.dumps({**result["samples"], "setup_samples_s": ready}))
    for line in result["failures"]:
        print("failed " + line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
