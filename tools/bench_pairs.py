"""Alternating parent/change benchmark pairs, written to one BENCH_*.json file.

Run from the repository root, with a checkout of the parent commit beside it:

    git clone -q . ../parent && git -C ../parent checkout -q <parent-commit>
    python3 tools/bench_pairs.py --parent ../parent --out BENCH_<tag>.json \\
        --change-text "what the change does" --claim enum-exact:items_per_s \\
        --pairs enum-exact=10 --pairs theory-csv=3 --seed 9001 \\
        --trace enum-exact:9001

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
with T the benchmark's run_seconds from BENCHMARK.json, once in the parent
checkout and once in this one, with one new seed per pair and the side that
runs first alternating from pair to pair. --trace W:S adds one traced run
(--trace 1, TRACE_SECONDS long) of workload W with seed S per side. The file
holds the machine facts, every run's header lines and JSON result (a run that
fails also keeps its return code and the end of its stderr), the
traced runs with their per-layer shares, and per workload and end-to-end
metric the median and quartiles of each side, the pairs the change won, the
parent's interquartile range and the pairs that lack the metric on a side.
The summary also says whether the --claim is met and lists the other metrics
that regressed past their BENCHMARK.json bounds (verdict()). Every --pairs,
--claim and --trace value is checked against BENCHMARK.json before the first
run (check_specs()).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 10
FAILED = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its JSON result, its header lines and, if traced, its shares.

    A run whose last line is not a JSON object is recorded as failed, with
    no metrics; such a run, and one that exits non-zero, keeps its return
    code and the end of its stderr under 'error'.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    parsed = isinstance(result, dict)
    if parsed:
        lines = lines[:-1]
    run = {"result": result if parsed else dict(FAILED), "info": [], "machine": None}
    if proc.returncode != 0 or not parsed:
        run["error"] = {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    for line in lines:
        if line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("shares "):
            run["shares"] = json.loads(line[len("shares "):])
        elif not line.startswith("  "):
            run["info"].append(line)
    return run


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's quartiles and the change's pair wins.

    Only pairs with the metric on both sides are compared; 'missing_pairs'
    counts the seeds that lack it on a side. A metric with fewer than two
    complete pairs gets only that count.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        entry = {"all_correct": all(r["result"].get("correct") for r in mine),
                 "failed": sum(r["result"].get("failed", 1) for r in mine)}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            complete = [(p["parent"][name]["value"], p["change"][name]["value"])
                        for p in pairs.values()
                        if name in p.get("parent", {}) and name in p.get("change", {})]
            entry[name] = {"missing_pairs": len(pairs) - len(complete)}
            if len(complete) < 2:
                continue
            wins = sum((c < p) if lower else (c > p) for p, c in complete)
            parent = quartiles([p for p, _ in complete])
            change = quartiles([c for _, c in complete])
            entry[name].update({
                "parent": parent,
                "change": change,
                "pairs": len(complete),
                "change_wins": wins,
                "median_change_rel": change["median"] / parent["median"] - 1.0,
                "parent_iqr": parent["q3"] - parent["q1"],
            })
        summary[workload] = entry
    return summary


def verdict(summary: dict, metrics: list[dict], claim: dict | None) -> dict:
    """The gate's reading of a summary: whether the claim is met, and what regressed.

    The claim is met when the change won at least 9 in 10 of the pairs
    run and its median beats the parent's, in the metric's better direction,
    by more than the parent's interquartile range; with no claim,
    claim_met is None. A regression is any other workload and metric
    whose change median is worse than the parent's by more than the
    metric's relative bound from BENCHMARK.json.
    """
    claimed = (claim["workload"], claim["metric"]) if claim else None
    claim_met = None if claim is None else False
    regressions = []
    for workload, entry in summary.items():
        for metric in metrics:
            name = metric["name"]
            stats = entry.get(name, {})
            if "pairs" not in stats:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            if (workload, name) == claimed:
                gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
                run = stats["pairs"] + stats["missing_pairs"]  # a failed pair is not a win
                wins = stats["change_wins"] * 10 >= run * 9
                claim_met = wins and gain > stats["parent_iqr"]
            elif -sign * stats["median_change_rel"] > metric["bound"]:
                regressions.append({"workload": workload, "metric": name,
                                    "median_change_rel": stats["median_change_rel"],
                                    "bound": metric["bound"]})
    return {"claim_met": claim_met, "regressions": regressions}


def check_specs(parser: argparse.ArgumentParser, args, bench: dict):
    """The --pairs, --claim and --trace values, checked against BENCHMARK.json.

    Returns ([(workload, count)], [(workload, seed)], claim or None); any
    bad value stops the tool through parser.error before the first run.
    """
    workloads = sorted(w["name"] for w in bench["workloads"])
    metrics = sorted(m["name"] for m in bench["end_to_end"])

    def split(flag: str, spec: str, sep: str, what: str) -> tuple[str, str]:
        workload, found, value = spec.partition(sep)
        if not found or workload not in workloads or not value:
            parser.error(f"{flag} {spec!r}: expected WORKLOAD{sep}{what}, "
                         f"WORKLOAD one of {', '.join(workloads)}")
        return workload, value

    def count(flag: str, spec: str, value: str, least: int) -> int:
        try:
            if int(value) >= least:
                return int(value)
        except ValueError:
            pass
        parser.error(f"{flag} {spec!r}: {value!r} is not an integer >= {least}")

    pairs = []
    for spec in args.pairs:
        workload, value = split("--pairs", spec, "=", "COUNT")
        pairs.append((workload, count("--pairs", spec, value, 1)))
    traces = []
    for spec in args.trace:
        workload, value = split("--trace", spec, ":", "SEED")
        traces.append((workload, count("--trace", spec, value, 0)))
    claim = None
    if args.claim:
        workload, metric = split("--claim", args.claim, ":", "METRIC")
        if metric not in metrics:
            parser.error(f"--claim {args.claim!r}: METRIC must be one of {', '.join(metrics)}")
        if workload not in {w for w, _ in pairs}:
            parser.error(f"--claim {args.claim!r}: no --pairs run {workload}")
        claim = {"workload": workload, "metric": metric}
    return pairs, traces, claim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--change-text", required=True, help="one line: what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=COUNT")
    parser.add_argument("--seed", type=int, default=9001, help="seed of the first pair")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEED")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs, trace_specs, claim = check_specs(parser, args, bench)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    seconds = bench["run_seconds"]

    runs, machine, seed = [], None, args.seed
    for workload, count in pairs:
        for index in range(count):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, seed, seconds, 0)
                facts = run.pop("machine")
                machine = machine or facts
                runs.append({"run_index": len(runs), "side": side, "workload": workload,
                             "seed": seed, **run})
                print(f"{side} {workload} seed {seed}: "
                      f"{json.dumps(run['result']['metrics'])}", file=sys.stderr)
            seed += 1
    traces = []
    for workload, trace_seed in trace_specs:
        for side in ("parent", "change"):
            run = run_once(sides[side], workload, trace_seed, TRACE_SECONDS, 1)
            facts = run.pop("machine")
            machine = machine or facts
            traces.append({"side": side, "workload": workload, "seed": trace_seed, **run})

    summary = summarize(runs, bench["end_to_end"])
    report = {
        "change": args.change_text,
        "claim": claim,
        "machine": machine,
        "parent": git_head(sides["parent"]),
        "what": (
            f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
            "run from a checkout of the parent commit and of the change, one new seed per "
            "pair and alternating which side runs first; 'result' is the last (JSON) line "
            "each run printed, 'info' its header lines, 'run_index' the order the runs were "
            "made in, 'error' the return code and stderr tail of a run that failed. "
            "'summary' gives per workload and metric the median and quartiles of each "
            "side, the pairs the change won, the parent's interquartile range and the "
            "pairs that lack the metric on a side (missing_pairs); 'claim_met' and "
            "'regressions' are the gate's reading of it (see verdict()). "
            f"'traces' holds --seconds {TRACE_SECONDS:g} --trace 1 runs, one per side."
        ),
        "runs": runs,
        "summary": {**summary, **verdict(summary, bench["end_to_end"], claim)},
        "traces": traces,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["result"].get("correct") for r in runs + traces) else 1


if __name__ == "__main__":
    sys.exit(main())
