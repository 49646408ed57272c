"""Milliseconds and minor page faults per library call, on the benchmark's designs.

Run from the repository root:

    python3 tools/faults.py            # full sizes: 10 timed calls after 3 warm-ups
    python3 tools/faults.py --smoke    # tiny sizes: 2 timed calls after 1 warm-up

For the sim-bigframe and enum-exact workloads of perfbench/workloads.py,
the tool builds the workload's population (seed 1) with
synthetic_population or random_population and calls corr2phase's
simulate or enumerate_exact on it directly, with no CLI and no CSV:
first some untimed warm-up calls, then the timed ones. For each timed
call it reads the wall time and the process's minor page faults
(resource.getrusage(RUSAGE_SELF).ru_minflt), and it prints one JSON
object per workload with the median of each. A minor fault is a first
touch of a page the process had handed back or never used, so a count
that stays high after the warm-ups measures memory that a call frees
and allocates again.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("sim-bigframe", "enum-exact")
SEED = 1


def library_call(name: str, smoke: bool):
    """A no-argument function running one workload's library call."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import corr2phase as c2p
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = workload.size(smoke)
    frame = workload.frame(size, SEED)
    design = c2p.DesignSpec(size.N, size.n1, size.n)
    if workload.command == "simulate":
        return lambda: c2p.simulate(frame, design, workload.estimator, size.reps, SEED, workers=1)
    return lambda: c2p.enumerate_exact(frame, design, workload.estimator)


def measure(call, calls: int, warmup: int) -> dict:
    """Median milliseconds and minor faults of `calls` timed calls after `warmup` others."""
    for _ in range(warmup):
        call()
    ms, faults = [], []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        ms.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"ms": statistics.median(ms), "minor_faults": statistics.median(faults),
            "calls": calls, "warmup": warmup}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' tiny sizes, 2 timed calls after 1 warm-up")
    args = parser.parse_args(argv)
    calls, warmup = (2, 1) if args.smoke else (10, 3)
    for name in NAMES:
        result = measure(library_call(name, args.smoke), calls, warmup)
        print(json.dumps({"workload": name, **result}), flush=True)


if __name__ == "__main__":
    main()
