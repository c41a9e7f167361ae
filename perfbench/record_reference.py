"""Record the default-seed reference outputs into perfbench/reference.json.

    python3 perfbench/record_reference.py [workload ...]

Runs every input of each named workload (all by default) once, checks the
invariants, and stores inputs and outputs.  Re-record only at a commit whose
outputs are known good; the timed runs compare against this file.
"""

from __future__ import annotations

import json
import os
import sys

from worker import DEFAULT_SEED, REFERENCE, build_inputs, load_fblimits
from workloads import WORKLOADS


def main(names) -> int:
    fb, _ = load_fblimits()
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        inputs = build_inputs(workload, DEFAULT_SEED)
        outputs = [workload.run(fb, p) for p in inputs]
        bad = [(p, why) for p, out in zip(inputs, outputs) if (why := workload.check(fb, p, out))]
        if bad:
            print(f"{name}: {len(bad)} outputs fail their invariants, e.g. {bad[0]}", file=sys.stderr)
            return 1
        ref[name] = {"seed": DEFAULT_SEED, "inputs": inputs, "outputs": outputs}
        print(f"{name}: {len(inputs)} reference outputs", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
