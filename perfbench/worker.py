"""One workload in one fresh process; started by perfbench/run.py.

Prints JSON lines on stdout: first {"event": "ready", "t": <wall clock>} once
`fblimits` is imported and the inputs are built, then, unless --setup-only,
{"event": "result", ...} after the timed loop and the output checks.

--trace 0 times a closed loop of ops for --seconds.  --trace 1 runs each op
twice in a row, untraced and then with the span recorder active, requires
identical outputs, and reports per-layer metrics from the traced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
REF_RTOL = 1e-12  # refactors may reorder sums; outputs agree to this relative tolerance


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def load_fblimits():
    """Import the package from this checkout's src/, never from site-packages."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fblimits

    import_s = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(fblimits.__file__), SRC]) != SRC:
        raise SystemExit(f"fblimits imported from {fblimits.__file__}, not from {SRC}")
    return fblimits, import_s


def build_inputs(workload, seed: int) -> list:
    # The JSON round trip makes inputs compare equal to the stored reference.
    return json.loads(json.dumps(workload.build(seed)))


def _timed(fn, *args):
    """(output, error text or None, seconds); an op that raises is counted, never fatal."""
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def timed_loop(fb, workload, inputs, seconds: float, recorder=None) -> dict:
    """Closed loop: run ops until `seconds` pass.

    With a recorder, each op runs twice in a row, first with the recorder
    inactive and then recording spans, so both passes see the same inputs
    under the same machine conditions.  Returns, per pass, the lists
    "outputs", "errors" and "latencies" (seconds).
    """
    passes = ("plain",) if recorder is None else ("plain", "traced")
    runs = {name: {"outputs": [], "errors": [], "latencies": []} for name in passes}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        for name in passes:
            if name == "plain":
                res = _timed(workload.run, fb, inp)
            else:
                res = _timed(recorder.run_op, i, workload.run, fb, inp)
            for key, value in zip(("outputs", "errors", "latencies"), res):
                runs[name][key].append(value)
        i += 1
        if time.perf_counter() >= deadline:
            return runs


def _close(a, b) -> bool:
    return len(a) == len(b) and all(
        x == y or abs(x - y) <= REF_RTOL * max(abs(x), abs(y)) for x, y in zip(a, b)
    )


def check_outputs(fb, workload, inputs, outputs, errors, seed, reference) -> list[str]:
    """One reason per failed op: raised, broke an invariant, missed the reference,
    or differed from an earlier run of the same input."""
    failures = []
    first = {}
    for i, (out, err) in enumerate(zip(outputs, errors)):
        k = i % len(inputs)
        if err is not None:
            failures.append(f"op {i}: raised {err}")
            continue
        why = workload.check(fb, inputs[k], out)
        if why is None and reference is not None:
            if k >= len(reference["outputs"]) or reference["inputs"][k] != inputs[k]:
                why = "no reference output for this input"
            elif not _close(out, reference["outputs"][k]):
                why = f"output {out!r} differs from reference {reference['outputs'][k]!r}"
        if why is None and k in first and out != first[k]:
            why = f"output {out!r} differs from an earlier run of the same input {first[k]!r}"
        first.setdefault(k, out)
        if why is not None:
            failures.append(f"op {i} ({inputs[k]}): {why}")
    return failures


def load_reference(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _openblas_threads():
    """Thread count OpenBLAS resolved, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_meta(workload) -> dict:
    import numpy as np
    import scipy

    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env if env is not None else "unset, OpenBLAS default",
        "openblas_threads_resolved": _openblas_threads(),
        "workload_threads": workload.threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def _quantile(sorted_vals, q: float) -> float:
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    fb, import_s = load_fblimits()
    inputs = build_inputs(workload, args.seed)
    _emit({"event": "ready", "t": time.time()})
    if args.setup_only:
        return 0

    reference = load_reference(workload.name, args.seed)
    meta = machine_meta(workload)
    if not args.trace:
        start = time.perf_counter()
        run = timed_loop(fb, workload, inputs, args.seconds)["plain"]
        wall = time.perf_counter() - start
        failures = check_outputs(fb, workload, inputs, run["outputs"], run["errors"], args.seed, reference)
        lat_ms = sorted(x * 1e3 for x in run["latencies"])
        n = len(lat_ms)
        p90 = _quantile(lat_ms, 0.90) if n > 1 else lat_ms[0]
        # Throughput per round (one input of each kind, so every round does
        # the same mix of work), median over the run's whole rounds: a burst
        # of load from outside the process moves few rounds.
        per_round = len(inputs) // workload.rounds
        round_s = [
            math.fsum(run["latencies"][j:j + per_round])
            for j in range(0, n - per_round + 1, per_round)
        ]
        metrics = {
            "ops_per_s": per_round / statistics.median(round_s) if round_s else n / wall,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (n - len(failures)) / n,
        }
        samples = {"ops": n, "rounds": len(round_s), "beyond_p90": sum(1 for x in lat_ms if x > p90), "wall_s": wall}
    else:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
        runs = timed_loop(fb, workload, inputs, args.seconds, recorder)
        plain, traced = runs["plain"], runs["traced"]
        n = len(plain["outputs"])
        failures = []
        for run in (plain, traced):
            failures += check_outputs(
                fb, workload, inputs, run["outputs"], run["errors"], args.seed, reference
            )
        failures += [
            f"op {i}: traced output {b!r} differs from untraced {a!r}"
            for i, (a, b) in enumerate(zip(plain["outputs"], traced["outputs"]))
            if a != b
        ]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        recorder.write(os.path.join(HERE, "out", f"trace-{workload.name}-seed{args.seed}.json"))
        metrics = tracer.layer_metrics(recorder.summary(), n)
        metrics["setup.import_s"] = import_s
        # Median over ops of traced / untraced latency of the same input, run
        # back to back; the median ignores one-off warm-up in either pass.
        metrics["trace.overhead_frac"] = statistics.median(
            t / p for t, p in zip(traced["latencies"], plain["latencies"])
        ) - 1.0
        samples = {"ops": n, "traced_ops": n, "spans": len(recorder.spans)}
        n *= 2

    _emit({
        "event": "result",
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "samples": samples,
        "meta": meta,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
