"""Acceptance gate: one test per criterion, run with -v for the
per-criterion pass/fail lines. Each test also prints a one-line summary
with the measured numbers (visible under -s or in failure reports).
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import corr2phase as c2p
from corr2phase import cli

SYNTH_SEED = 1
SIM_SEED = 101
BIG_DESIGN = c2p.DesignSpec(10000, 400, 100)


def report(criterion: int, detail: str) -> None:
    print(f"CRITERION {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def big_setting():
    frame = c2p.synthetic_population(10000, seed=SYNTH_SEED)
    m = c2p.population_moments(frame)
    return frame, m


@pytest.fixture(scope="module")
def big_runs(big_setting):
    frame, m = big_setting
    t_opt = c2p.optimal_estimator("t-linear", m)
    runs = {
        label: c2p.simulate(
            frame, BIG_DESIGN, spec, reps=20000, seed=SIM_SEED, workers=8
        )
        for label, spec in (
            ("sample-r", "sample-r"),
            ("t-linear-opt", t_opt),
            ("td-star", "td-star:power"),
        )
    }
    return m, runs


def test_criterion_1_normal_theory_identity():
    worst = 0.0
    for rho in (0.0, 0.3, 0.9136):
        for n in (10, 100):
            got = c2p.var_r(c2p.normal_theory_moments(rho), n)
            expect = (1.0 - rho * rho) ** 2 / n
            rel = abs(got - expect) / expect
            worst = max(worst, rel)
            assert rel <= 1e-10, (rho, n, got, expect)
    report(1, f"max relative error {worst:.2e} <= 1e-10")


def test_criterion_2_quadratic_minimum(published_moments):
    m = published_moments
    n, n1 = 10, 25

    def f(t):
        return c2p.var_t_class(m, n, n1, t)

    # The objective is an exact quadratic in the weights, so one Newton
    # step from the origin using unit-step central differences finds
    # the minimizer without truncation error.
    h = 1.0
    e = np.eye(4)
    grad = np.array([(f(h * e[i]) - f(-h * e[i])) / (2 * h) for i in range(4)])
    hess = np.empty((4, 4))
    f0 = f((0.0, 0.0, 0.0, 0.0))
    for i in range(4):
        hess[i, i] = (f(h * e[i]) - 2 * f0 + f(-h * e[i])) / h**2
        for j in range(i + 1, 4):
            hess[i, j] = hess[j, i] = (
                f(h * (e[i] + e[j]))
                - f(h * (e[i] - e[j]))
                - f(h * (e[j] - e[i]))
                + f(-h * (e[i] + e[j]))
            ) / (4 * h**2)
    t_star = np.linalg.solve(hess, -grad)

    closed = np.array(c2p.optimum_constants(m).weights())
    coord_err = np.max(np.abs(t_star - closed))
    assert coord_err <= 1e-6, (t_star, closed)

    value_err = abs(f(tuple(t_star)) - c2p.min_var_td(m, n, n1))
    assert value_err <= 1e-9
    report(
        2,
        f"coordinate error {coord_err:.2e} <= 1e-6, "
        f"minimum error {value_err:.2e} <= 1e-9",
    )


def test_criterion_3_gap_identity_and_ordering():
    n, n1 = 20, 60
    worst_gap_err = 0.0
    for seed in range(100):
        m = c2p.population_moments(c2p.random_population(200, seed=seed))
        vr = c2p.var_r(m, n)
        hd = c2p.min_var_hd(m, n, n1)
        td = c2p.min_var_td(m, n, n1)
        gap = c2p.variance_gap(m, n, n1)
        assert gap >= 0.0, seed
        assert abs(gap - (hd - td)) <= 1e-12, seed
        assert td <= hd <= vr, seed
        worst_gap_err = max(worst_gap_err, abs(gap - (hd - td)))
    report(
        3,
        "100 populations ordered, max |z reduction - subtraction| "
        f"{worst_gap_err:.2e} <= 1e-12",
    )


def test_criterion_4_enumeration_vs_simulation(six_frame):
    design = c2p.DesignSpec(6, 4, 3)
    exact = c2p.enumerate_exact(six_frame, design, "sample-r")
    sim = c2p.simulate(
        six_frame, design, "sample-r", reps=200_000, seed=404, workers=8
    )
    mean_gap = abs(sim.mean_estimate - exact.mean_estimate)
    mse_gap = abs(sim.empirical_mse - exact.exact_mse)
    assert mean_gap <= 4 * sim.mc_se_mean
    assert mse_gap <= 4 * sim.mc_se_mse
    report(
        4,
        f"mean within {mean_gap / sim.mc_se_mean:.2f} SE, "
        f"MSE within {mse_gap / sim.mc_se_mse:.2f} SE (4 allowed)",
    )


def test_criterion_5_first_order_variance_realism(big_runs):
    m, runs = big_runs
    var_r = c2p.var_r(m, BIG_DESIGN.n)
    var_td = c2p.min_var_td(m, BIG_DESIGN.n, BIG_DESIGN.n1)
    ratio_r = runs["sample-r"].empirical_mse / var_r
    ratio_t = runs["t-linear-opt"].empirical_mse / var_td
    assert abs(ratio_r - 1.0) <= 0.10, ratio_r
    assert abs(ratio_t - 1.0) <= 0.15, ratio_t
    report(
        5,
        f"MSE/theory: sample-r {ratio_r:.3f} (10% allowed), "
        f"optimal linear {ratio_t:.3f} (15% allowed)",
    )


def test_criterion_6_plugin_matches_oracle_optimum(big_runs):
    _, runs = big_runs
    a, b = runs["td-star"], runs["t-linear-opt"]
    se = math.hypot(a.mc_se_mse, b.mc_se_mse)
    gap = abs(a.empirical_mse - b.empirical_mse)
    assert gap <= 3 * se, (a.empirical_mse, b.empirical_mse, se)
    report(6, f"plug-in vs oracle-optimum MSE gap {gap / se:.2f} SE (3 allowed)")


def test_criterion_7_published_efficiency_handling(capsys):
    code = cli.main(
        [
            "efficiency",
            "--params",
            "fixtures/murthy67.json",
            "--delta310-from-delta300",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["published"] == {"r": 100, "hd": 129.147, "td": 305.441}
    assert doc["pre_td"] >= doc["pre_hd"] >= 100.0
    notes = "\n".join(doc["notes"])
    assert "not reproducible" in notes
    report(
        7,
        f"published (100, 129.147, 305.441) emitted beside computed "
        f"({doc['pre_hd']:.3f}, {doc['pre_td']:.3f}); ordering holds; "
        "discrepancy note present",
    )


def test_criterion_8_unity_collapse():
    rng = np.random.default_rng(8)
    checked = 0
    for seed in range(25):
        frame = c2p.random_population(50, seed=seed)
        design = c2p.DesignSpec(50, 20, 8)
        sample = c2p.draw_two_phase(frame, design, seed=seed)
        stats = c2p.sample_statistics(
            frame, sample, c2p.KnownAux.from_frame(frame)
        )
        unit = dataclasses.replace(
            stats,
            u=1.0,
            v=1.0,
            w=1.0,
            a=1.0,
            mean_x_first=stats.mean_x,
            s2_x_first=stats.s2_x,
            mean_z_first=stats.aux.zbar,
            s2_z_first=stats.aux.sz2,
        )
        for kind in c2p.ESTIMATOR_KINDS:
            arity = {"gen-power": 4, "h-linear": 2, "h-power": 2,
                     "t-linear": 4, "t-power": 4, "difference": 4}.get(kind, 0)
            constants = tuple(rng.uniform(-5, 5, arity))
            spec = c2p.EstimatorSpec(kind=kind, constants=constants)
            assert c2p.estimate(spec, unit) == unit.r, (seed, kind)
            checked += 1
    report(8, f"{checked} randomized (stats, kind) cases returned r exactly")


def test_criterion_9_bit_identical_replication(big_setting):
    frame, _ = big_setting
    results = {}
    for workers in (1, 8):
        first = c2p.simulate(
            frame, BIG_DESIGN, "td-star:power", reps=4000, seed=7, workers=workers
        )
        second = c2p.simulate(
            frame, BIG_DESIGN, "td-star:power", reps=4000, seed=7, workers=workers
        )
        assert first == second, f"workers={workers}"
        results[workers] = first
    assert results[1] == results[8]
    report(9, "repeat runs bit-identical at workers=1 and workers=8, and across")
