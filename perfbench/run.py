"""Benchmark of the corr2phase command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload sim-bigframe --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

One run generates the workload's population CSV from --seed, times
`import corr2phase.cli` in fresh interpreters (setup_s, before and
after the workload) and runs the workload in its own process
(perfbench/worker.py), which calls
corr2phase.cli.main(argv) in a closed loop for --seconds and checks
every report. With --trace 1 the worker alternates traced and untraced
invocations and the run reports per-layer figures instead of the
end-to-end ones. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--smoke runs every workload at a tiny size, with and without tracing,
and checks that the metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, expected_values, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ".perfbench_runs"  # inside the checkout, ignored by git

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import corr2phase.cli; "
    "print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 10  # half before the workload process, half after it
MIN_INVOCATIONS = 20  # timed invocations per run, whatever --seconds says
MIN_TRACED = 10  # traced invocations per traced run
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
RUN_LIMIT_S = 170  # a run must end well within 180 s


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(env: dict, samples: int) -> list[float]:
    """Seconds to import corr2phase.cli in fresh interpreters, after one untimed import."""
    probe = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(probe, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return [
        float(subprocess.run(probe, cwd=ROOT, env=env, check=True, capture_output=True,
                             text=True, timeout=60).stdout)
        for _ in range(samples)
    ]


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    return facts


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result object and prints the human-readable lines."""
    began = time.perf_counter()
    size = workload.size(smoke)
    rundir = Path(RUN_DIR) / (f"smoke-{workload.name}" if smoke else workload.name)
    shutil.rmtree(ROOT / rundir, ignore_errors=True)
    (ROOT / rundir).mkdir(parents=True)
    pop, out = rundir / "population.csv", rundir / "report.json"
    frame = workload.frame(size, seed)
    write_csv(frame, ROOT / pop)
    reference = None
    if seed == DEFAULT_SEED and not smoke:
        refs = json.loads((HERE / "reference.json").read_text())
        reference = refs["reports"][workload.name]
    env = program_env()
    imports = 2 if smoke else IMPORT_SAMPLES // 2
    setup = [] if trace else import_times(env, imports)
    config = {
        "root": str(ROOT),
        "workload": workload.name,
        "smoke": smoke,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pop": str(pop),
        "out": str(out),
        "spans": str(rundir / "spans.json"),
        "expect": expected_values(workload, size, frame),
        "reference": reference,
        "min_invocations": (MIN_TRACED if trace else MIN_INVOCATIONS) if not smoke else 11,
        "max_seconds": max(seconds, RUN_LIMIT_S - 30 - (time.perf_counter() - began)),
    }
    del frame
    config_path = ROOT / rundir / "config.json"
    config_path.write_text(json.dumps(config))
    facts = machine_facts()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - began)),
        )
        worker = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        worker = None
    if worker is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not trace:
        # imports on both sides of the workload, so that a slow spell of
        # the host during the run weighs on setup_s as on wall_s
        setup += import_times(env, imports)

    facts.update(numpy=worker["numpy"], backend=worker["backend"],
                 have_numba=worker["have_numba"], CORR2PHASE_BACKEND=worker["env_backend"])
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    attempted, failed = worker["attempted"], worker["failed"]
    print(f"workload {workload.name} seed {seed}{' (smoke size)' if smoke else ''}: "
          f"{attempted} invocations incl. 1 warm-up, {failed} failed, "
          f"failed_frac {failed / attempted:.4g}")
    metrics = {}
    if trace:
        for name, (value, unit) in worker["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        for name in worker["missing"]:
            print(f"MISSING entry point {name}: its layer figures are reported as null")
        layer_sum = metrics["trace.self_sum_s"]["value"]
        shares = {k.rsplit(".", 1)[0]: v["value"] / layer_sum if layer_sum else 0.0
                  for k, v in metrics.items()
                  if k.endswith((".s", ".self_s")) and not k.startswith("trace.")
                  and v["value"] is not None}
        print("shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    elif worker["times"]:
        times = worker["times"]
        wall = statistics.median(times)
        tail_s, pct = tail(times)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "wall_s_tail": {"value": tail_s, "unit": "s"},
            "items_per_s": {"value": workload.items(size) / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": worker["maxrss_kb"] / 1024.0, "unit": "MiB"},
        }
        print(f"wall_s_tail is p{pct:.1f} of {len(times)} timed invocations; "
              f"setup_s is the median of {len(setup)} fresh imports")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload once at its smoke size; metric names and units must match BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS.values():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, DEFAULT_SEED, 0.0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload.name} trace={int(trace)}"
            if got != want:
                problems.append(f"{where}: metrics {got} do not match BENCHMARK.json {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            nulls = [n for n, m in result["metrics"].items() if m["value"] is None]
            if nulls:
                problems.append(f"{where}: no value for {nulls}")
    for problem in problems:
        print(f"SMOKE FAILURE {problem}")
    print(json.dumps({"correct": not problems, "smoke_failures": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corr2phase" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'corr2phase'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
