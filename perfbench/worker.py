"""Workload process of the corr2phase benchmark.

perfbench/run.py starts it as `python3 perfbench/worker.py CONFIG.json`
from the checkout root, with the checkout's `src` on PYTHONPATH. It
runs one untimed warm-up invocation of corr2phase.cli.main(argv), then
invokes the command in a closed loop (one caller, each call starting
when the previous one returns) for the configured seconds, and checks
every report. With tracing on, every other invocation runs traced.

The last line of standard output is one JSON object: the invocation
times, the failures, this process's ru_maxrss and, when tracing, the
per-layer figures.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, self_times
from workloads import WORKLOADS, check_report, compare_reference


def invoke(cli, argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI command in-process; return its time and any failure."""
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, "exception"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit code {code}"


class ReportChecker:
    """Checks each report; a byte-identical repeat of a good one passes."""

    def __init__(self, workload, size, seed: int, cfg: dict) -> None:
        self.args = (workload, size, seed, cfg["pop"])
        self.out = Path(cfg["out"])
        self.expect = cfg["expect"]
        self.reference = cfg["reference"]
        self.good: bytes | None = None

    def check(self) -> str | None:
        try:
            text = self.out.read_bytes()
        except OSError as exc:
            return f"no report: {exc}"
        if text == self.good:
            return None
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return f"report is not JSON: {exc}"
        problems = check_report(*self.args, doc, self.expect)
        if self.reference is not None:
            problems += compare_reference(doc, self.reference)
        if self.good is not None:
            problems.append("report differs from the earlier invocations' report")
        if problems:
            return "; ".join(problems)
        self.good = text
        return None


def trace_metrics(tracer: Tracer, traced: list[float], untraced: list[float],
                  invocations: int) -> dict:
    """Per-layer figures per traced invocation; None where an entry point is missing."""
    totals = self_times(tracer.spans)
    by_id = {s.sid: s for s in tracer.spans}
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def per(x: float) -> float:
        return x / invocations

    def layer_s(layer: str) -> float | None:
        return per(totals.get(layer, 0.0)) if layer in tracer.layers else None

    def kernel(name: str, key: str) -> float | None:
        if name in tracer.missing:
            return None
        spans = by_name[name]
        if key == "calls":
            return per(len(spans))
        return per(sum(s.counts.get(key, 0) for s in spans))

    m = {}
    for name in ("_kernels.draw_rows", "_kernels.stats_rows"):
        prefix = "kernels." + name.split(".")[1]
        m[f"{prefix}.s"] = (layer_s(prefix), "s")
        m[f"{prefix}.calls"] = (kernel(name, "calls"), "count")
        m[f"{prefix}.rows"] = (kernel(name, "rows"), "count")
        m[f"{prefix}.bytes_computed"] = (kernel(name, "bytes"), "B")
    mc = [s for s in tracer.spans if s.layer == "montecarlo"]
    have_mc = "montecarlo" in tracer.layers
    chunks = sum(1 for s in by_name["_kernels.stats_rows"]
                 if s.parent is not None and by_id[s.parent].layer == "montecarlo")
    attempted = sum(s.counts.get("attempted", 0) for s in mc)
    used = sum(s.counts.get("used", 0) for s in mc)
    m["montecarlo._aggregate.s"] = (layer_s("montecarlo._aggregate"), "s")
    m["montecarlo.self_s"] = (layer_s("montecarlo"), "s")
    m["montecarlo.chunks"] = (per(chunks) if have_mc else None, "count")
    m["montecarlo.used_ratio"] = ((used / attempted if attempted else 0.0) if have_mc else None,
                                  "ratio")
    m["estimators.evaluate_rows.s"] = (layer_s("estimators.evaluate_rows"), "s")
    m["io.load_population_csv.s"] = (layer_s("io.load_population_csv"), "s")
    loads = by_name["io.load_population_csv"]
    m["io.load_population_csv.rows"] = (
        None if "io.load_population_csv" in tracer.missing
        else per(sum(s.counts.get("rows", 0) for s in loads)), "count")
    m["io.render_report.s"] = (layer_s("io.render_report"), "s")
    m["moments.population_moments.s"] = (layer_s("moments.population_moments"), "s")
    m["analytics.s"] = (layer_s("analytics"), "s")
    m["cli.self_s"] = (layer_s("cli"), "s")
    wall = sum(traced) / len(traced) if traced else None
    base = sum(untraced) / len(untraced) if untraced else None
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (base, "s")
    m["trace.overhead_s"] = (wall - base if wall is not None and base is not None else None, "s")
    m["trace.self_sum_s"] = (per(sum(totals.values())), "s")
    m["trace.invocations"] = (invocations, "count")
    m["trace.missing"] = (len(tracer.missing), "count")
    return m


def run(cfg: dict) -> dict:
    import numpy

    from corr2phase import _kernels, cli

    workload = WORKLOADS[cfg["workload"]]
    size = workload.size(cfg["smoke"])
    argv = workload.argv(size, cfg["pop"], cfg["out"], cfg["seed"])
    checker = ReportChecker(workload, size, cfg["seed"], cfg)
    tracer = Tracer() if cfg["trace"] else None
    times: dict[bool, list[float]] = {False: [], True: []}
    counts = {"attempted": 0, "failed": 0, "traced": 0}

    def one(index: int, traced: bool) -> None:
        counts["attempted"] += 1
        Path(cfg["out"]).unlink(missing_ok=True)
        if traced:
            counts["traced"] += 1
            tracer.install(index)
        try:
            seconds, error = invoke(cli, argv)
        finally:
            if traced:
                tracer.uninstall()
        if error is None:
            try:
                error = checker.check()
            except Exception as exc:  # a malformed report must not stop the run
                traceback.print_exc()
                error = f"report check raised {exc!r}"
        if error is not None:
            counts["failed"] += 1
            print(f"invocation {index} failed: {error}", file=sys.stderr)
        else:
            times[traced].append(seconds)

    one(-1, False)  # warm-up: untimed, but checked
    runs_per_sample = 2 if tracer else 1
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = index >= cfg["min_invocations"] * runs_per_sample
        if (elapsed >= cfg["seconds"] and enough) or elapsed >= cfg["max_seconds"]:
            break
        one(index, tracer is not None and index % 2 == 1)
        index += 1

    result = {
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "times": times[False],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "backend": _kernels.resolve_backend(None),
        "have_numba": _kernels.HAVE_NUMBA,
        "env_backend": os.environ.get(_kernels.ENV_VAR),
    }
    if tracer is not None:
        result["missing"] = tracer.missing
        result["layers"] = trace_metrics(tracer, times[True], times[False], counts["traced"])
        Path(cfg["spans"]).write_text(json.dumps(tracer.dump()))
    return result


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    import corr2phase

    src = (Path(cfg["root"]) / "src").resolve()
    if Path(corr2phase.__file__).resolve().parent.parent != src:
        print(f"error: imported corr2phase from {corr2phase.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps(run(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
