"""Workload definitions and report checks for the corr2phase benchmark.

A workload is one CLI command on one generated population. The
population comes from the workload seed through the package's own
generators; the command receives only the CSV file. Each workload has a
full size, used for measurement, and a smoke size that runs in a few
milliseconds, used by the benchmark's self-test.

This module imports corr2phase lazily: the caller puts the checkout's
`src` directory on sys.path first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 1

# Relative tolerance between a report value and the value it is checked
# against. Reports round floats to 12 significant digits, so an exact
# match differs by at most 5e-13; 1e-9 also absorbs rounding-level
# differences between the numpy and numba kernels.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    N: int
    n1: int
    n: int
    reps: int = 0  # replications, simulate only


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate", "enumerate" or "efficiency"
    population: str  # "synthetic" or "random"
    estimator: str | None
    full: Size
    smoke: Size

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full

    def argv(self, size: Size, pop: str, out: str, seed: int) -> list[str]:
        if self.command == "efficiency":
            args = ["efficiency", "--pop", pop, "--n", str(size.n), "--n1", str(size.n1)]
        else:
            args = [self.command, "--pop", pop, "--n1", str(size.n1), "--n", str(size.n)]
            args += ["--estimator", self.estimator]
        if self.command == "simulate":
            # one worker: on two cores a second pool thread made calls
            # slower and their times twice as noisy
            args += ["--reps", str(size.reps), "--seed", str(seed), "--workers", "1"]
        return args + ["--out", out]

    def items(self, size: Size) -> int:
        """Work items per invocation: replications, pairs or population rows."""
        if self.command == "simulate":
            return size.reps
        if self.command == "enumerate":
            return math.comb(size.N, size.n1) * math.comb(size.n1, size.n)
        return size.N

    def frame(self, size: Size, seed: int):
        from corr2phase.montecarlo import random_population, synthetic_population

        make = synthetic_population if self.population == "synthetic" else random_population
        return make(size.N, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-bigframe", "simulate", "synthetic", "td-star:power",
            full=Size(N=20_000, n1=400, n=100, reps=3_000),
            smoke=Size(N=2_000, n1=40, n=10, reps=40),
        ),
        Workload(
            "enum-exact", "enumerate", "random", "td-star:linear",
            full=Size(N=14, n1=10, n=6),
            smoke=Size(N=9, n1=7, n=5),
        ),
        Workload(
            "theory-csv", "efficiency", "synthetic", None,
            full=Size(N=100_000, n1=400, n=100),
            smoke=Size(N=2_000, n1=400, n=100),
        ),
    )
}


def write_csv(frame, path) -> None:
    """Write a population CSV whose floats read back exactly (repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x,z\n")
        fh.writelines(
            f"{y!r},{x!r},{z!r}\n"
            for y, x, z in zip(frame.y.tolist(), frame.x.tolist(), frame.z.tolist())
        )


def expected_values(workload: Workload, size: Size, frame) -> dict:
    """Values a correct report must carry, computed from the generated frame."""
    from corr2phase import efficiency_report, population_moments

    m = population_moments(frame)
    if workload.command != "efficiency":
        return {"rho_yx": m.rho_yx}
    report = efficiency_report(m, size.n, size.n1)
    return {
        "var_r": report.var_r,
        "var_hd_min": report.var_hd_min,
        "var_td_min": report.var_td_min,
        "gap": report.gap,
        "pre_hd": report.pre_hd,
        "pre_td": report.pre_td,
    }


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_report(workload: Workload, size: Size, seed: int, pop: str, doc: dict,
                 expect: dict) -> list[str]:
    """Structural invariants every report must satisfy; returns the violations."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    need(doc.get("schema") == 1, "schema is not 1")
    need(doc.get("kind") == workload.command, f"kind is {doc.get('kind')!r}")
    if workload.command == "efficiency":
        need(doc.get("inputs") == {"n": size.n, "n1": size.n1, "source": f"population:{pop}"},
             f"inputs are {doc.get('inputs')!r}")
        for key, value in expect.items():
            got = doc.get(key)
            need(isinstance(got, float) and _close(got, value),
                 f"{key}={got!r}, library gives {value!r}")
        if not problems:
            need(doc["var_td_min"] <= doc["var_hd_min"] <= doc["var_r"],
                 "variances are not ordered td <= hd <= r")
        return problems

    need(doc.get("design") == {"N": size.N, "n1": size.n1, "n": size.n},
         f"design is {doc.get('design')!r}")
    need(doc.get("estimator") == workload.estimator, f"estimator is {doc.get('estimator')!r}")
    rho = doc.get("rho_yx")
    need(isinstance(rho, float) and _close(rho, expect["rho_yx"]),
         f"rho_yx={rho!r}, population_moments gives {expect['rho_yx']!r}")
    unit = "reps" if workload.command == "simulate" else "pairs"
    total_key = "reps_requested" if unit == "reps" else "pairs_total"
    total = doc.get(total_key)
    used, skipped = doc.get(f"{unit}_used"), doc.get(f"{unit}_skipped")
    need(total == workload.items(size), f"{total_key}={total!r}, expected {workload.items(size)}")
    need(isinstance(used, int) and isinstance(skipped, int) and used + skipped == total,
         f"{unit}_used + {unit}_skipped != {total_key}")
    need(sum(doc.get("skip_reasons", {}).values()) == skipped, "skip_reasons do not sum to skips")
    mean = doc.get("mean_estimate")
    need(isinstance(mean, float) and abs(mean) <= 1.5, f"mean_estimate={mean!r}")
    if isinstance(mean, float) and isinstance(rho, float):
        need(abs(doc.get("bias", math.inf) - (mean - rho)) <= 1e-9, "bias != mean_estimate - rho_yx")
    mse = doc.get("empirical_mse" if unit == "reps" else "exact_mse")
    need(isinstance(mse, float) and mse > 0.0, f"mse={mse!r}")
    if workload.command == "simulate":
        need(doc.get("seed") == seed, f"seed is {doc.get('seed')!r}")
        for key in ("mc_se_mean", "mc_se_mse", "analytic_variance"):
            value = doc.get(key)
            need(isinstance(value, float) and value > 0.0, f"{key}={value!r}")
    return problems


def compare_reference(doc, ref, path: str = "") -> list[str]:
    """Differences between a report and its recorded reference."""
    if isinstance(ref, dict) and isinstance(doc, dict):
        if set(doc) != set(ref):
            return [f"{path or 'report'}: keys {sorted(doc)} != {sorted(ref)}"]
        return [p for k in sorted(ref) for p in compare_reference(doc[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, float) and isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [] if _close(doc, ref) else [f"{path}: {doc!r} != reference {ref!r}"]
    return [] if doc == ref else [f"{path}: {doc!r} != reference {ref!r}"]
