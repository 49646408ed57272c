"""Milliseconds, minor page faults and peak RSS per library call, on the benchmark's designs.

Run from the repository root:

    python3 tools/faults.py            # full sizes: 10 timed calls after 3 warm-ups
    python3 tools/faults.py --smoke    # tiny sizes: 2 timed calls after 1 warm-up

For the sim-bigframe and enum-exact workloads of perfbench/workloads.py,
the tool builds the workload's population (seed 1) with
synthetic_population or random_population and calls corr2phase's
simulate or enumerate_exact on it directly, with no CLI and no CSV.
For theory-csv, whose command reads its population from a CSV file,
a process of its own first writes that population (seed 1) with the
workload module's write_csv to a temporary file, and the call is
load_population_csv on that file. Each workload runs first some
untimed warm-up calls, then the timed ones. For each timed
call it reads the wall time and the process's minor page faults
(resource.getrusage(RUSAGE_SELF).ru_minflt), and it prints one JSON
object per workload with the median of each and the process's peak
resident set size (ru_maxrss, in MiB) after the last call. A minor
fault is a first touch of a page the process had handed back or never
used, so a count that stays high after the warm-ups measures memory
that a call frees and allocates again. Each workload runs in a fresh
Python process of its own, because ru_maxrss only ever grows: a peak
left by one workload would hide the next one's. A process also starts
from the peak of the one that forked it, so this tool's own process
never imports corr2phase or builds a population.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("sim-bigframe", "enum-exact", "theory-csv")
SEED = 1


def import_workloads():
    """perfbench's workloads module, with this checkout's corr2phase importable."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def write_population(name: str, smoke: bool, path: str) -> None:
    """Write a workload's seed-1 population to path as CSV."""
    workloads = import_workloads()
    workload = workloads.WORKLOADS[name]
    workloads.write_csv(workload.frame(workload.size(smoke), SEED), path)


def library_call(name: str, smoke: bool, pop: str = ""):
    """A no-argument function running one workload's library call.

    pop is the population file that write_population made for a
    workload whose command reads one.
    """
    workload = import_workloads().WORKLOADS[name]
    import corr2phase as c2p
    from corr2phase.io import load_population_csv

    if workload.command == "efficiency":
        return lambda: load_population_csv(pop)
    size = workload.size(smoke)
    frame = workload.frame(size, SEED)
    design = c2p.DesignSpec(size.N, size.n1, size.n)
    if workload.command == "simulate":
        return lambda: c2p.simulate(frame, design, workload.estimator, size.reps, SEED, workers=1)
    return lambda: c2p.enumerate_exact(frame, design, workload.estimator)


def measure(call, calls: int, warmup: int) -> dict:
    """Median milliseconds and minor faults of `calls` timed calls after `warmup` others.

    Also the process's peak RSS in MiB after them (Linux reports ru_maxrss in KiB).
    """
    for _ in range(warmup):
        call()
    ms, faults = [], []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        ms.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ms": statistics.median(ms), "minor_faults": statistics.median(faults),
            "peak_rss_mb": round(peak, 2), "calls": calls, "warmup": warmup}


def measure_workload(name: str, smoke: bool, pop: str = "") -> None:
    """Print one workload's JSON result line; run in a process of its own."""
    calls, warmup = (2, 1) if smoke else (10, 3)
    result = measure(library_call(name, smoke, pop), calls, warmup)
    print(json.dumps({"workload": name, **result}), flush=True)


# what a workload's fresh processes run: this module's write_population
# and measure_workload
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import faults; "
    "faults.{}(sys.argv[2], sys.argv[3] == 'smoke', sys.argv[4])"
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' tiny sizes, 2 timed calls after 1 warm-up")
    args = parser.parse_args(argv)
    workloads = import_workloads().WORKLOADS
    size = "smoke" if args.smoke else "full"
    with tempfile.TemporaryDirectory() as scratch:
        for name in NAMES:
            pop = ""
            if workloads[name].command == "efficiency":
                pop = str(Path(scratch) / f"{name}.csv")
                subprocess.run([sys.executable, "-c", CHILD.format("write_population"),
                                str(ROOT / "tools"), name, size, pop], check=True)
            child = [sys.executable, "-c", CHILD.format("measure_workload"),
                     str(ROOT / "tools"), name, size, pop]
            proc = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
            print(proc.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
