import itertools
import math
import os
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase import _kernels, montecarlo
from corr2phase.errors import (
    AllSamplesDegenerate,
    Corr2PhaseError,
    DegenerateSample,
    ExcessiveSkips,
    InvalidDesign,
    InvalidParameter,
    NonFiniteEstimate,
    SingularDenominator,
    TooManySamples,
)
from corr2phase.estimators import ESTIMATOR_KINDS, SKIP_LABELS, evaluate_rows
from corr2phase.montecarlo import (
    EnumerationResult,
    _aggregate,
    _check_skip_budget,
    _standard_errors,
    _sum,
    analytic_variance_for,
)

# Frozen values from the exact-rational enumeration oracle for the
# six-unit population under the N=6, n1=4, n=3 design (60 pairs).
ENUM_MEAN_R = 0.7777180587355177
ENUM_MSE_R = 0.04695820314819682
ENUM_BIAS_R = 0.07269407082488512

CENSUS = c2p.DesignSpec(6, 6, 6)
NESTED = c2p.DesignSpec(6, 4, 3)


@pytest.fixture(scope="module")
def chain_frame():
    return c2p.synthetic_population(500, seed=4)


@pytest.fixture(scope="module")
def chain_design():
    return c2p.DesignSpec(500, 60, 20)


class TestEnumeration:
    def test_frozen_sample_r_distribution(self, six_frame):
        result = c2p.enumerate_exact(six_frame, NESTED, "sample-r")
        assert result.pairs_total == 60
        assert result.pairs_skipped == 0
        assert result.mean_estimate == pytest.approx(ENUM_MEAN_R, rel=1e-12)
        assert result.exact_mse == pytest.approx(ENUM_MSE_R, rel=1e-12)
        assert result.bias == pytest.approx(ENUM_BIAS_R, rel=1e-11)

    def test_census_is_exact(self, six_frame):
        m = c2p.population_moments(six_frame)
        result = c2p.enumerate_exact(six_frame, CENSUS, "sample-r")
        assert result.pairs_total == 1
        assert result.mean_estimate == m.rho_yx
        assert result.exact_mse == 0.0
        assert result.bias == 0.0

    def test_additive_adjustments_leave_the_mean(self, six_frame):
        # Every adjustment ratio has exact design expectation 1, so the
        # enumerated mean of any additive-form estimator matches the
        # plain sample correlation regardless of its constants.
        base = c2p.enumerate_exact(six_frame, NESTED, "sample-r")
        moved = c2p.enumerate_exact(
            six_frame, NESTED, "difference:0.7,-1.3,0.4,2.2"
        )
        assert moved.mean_estimate == pytest.approx(
            base.mean_estimate, rel=1e-13
        )
        assert moved.exact_mse != pytest.approx(base.exact_mse, rel=1e-3)

    def test_pair_budget(self, six_frame):
        with pytest.raises(TooManySamples):
            c2p.enumerate_exact(six_frame, NESTED, "sample-r", cap=10)

    def test_pair_count_too_long_to_print(self):
        # C(12000, 6000) * C(6000, 3000) has 5415 digits; Python refuses
        # to print an int of more than 4300, so the message gives its size
        frame = c2p.synthetic_population(12_000, 1)
        design = c2p.DesignSpec(12_000, 6_000, 3_000)
        with pytest.raises(TooManySamples, match=r"^about 10\^5414\.4 two-phase pairs exceed"):
            c2p.enumerate_exact(frame, design, "sample-r")

    def test_two_point_second_phase_skips_everything(self, six_frame):
        with pytest.raises(AllSamplesDegenerate):
            c2p.enumerate_exact(six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power")

    def test_tied_study_variable_trips_skip_budget(self):
        ties = c2p.PopulationFrame(
            y=np.array([1.0, 1, 1, 1, 2, 3]),
            x=np.array([2.0, 1, 4, 3, 8, 6]),
            z=np.array([1.0, 3, 2, 5, 4, 8]),
        )
        with pytest.raises(ExcessiveSkips):
            c2p.enumerate_exact(ties, NESTED, "sample-r")


# Small integer frame with ties and a mean-zero x: across the estimator
# kinds, its (8, 5, 3) pairs hit every skip reason and every kernel flag.
TIES = c2p.PopulationFrame(
    y=np.array([2.0, 3, 2, 1, 3, 3, 3, 1]),
    x=np.array([-2.0, 3, -2, 1, -2, -1, 1, 1]),
    z=np.array([2.0, 1, 1, 1, 1, 3, 2, 2]),
)

DIFFERENTIAL_DESIGNS = [
    ("six", c2p.DesignSpec(6, 4, 3)),
    ("random", c2p.DesignSpec(9, 7, 2)),
    ("random", c2p.DesignSpec(12, 6, 6)),  # n == n1
    ("random", c2p.DesignSpec(9, 8, 8)),  # n == n1, rows summed pairwise
    ("random", c2p.DesignSpec(10, 10, 4)),  # n1 == N
    # C(69, 34) ~ 1.1e20 overflows a naive int64 binomial table
    ("random", c2p.DesignSpec(70, 69, 68)),
    ("ties", c2p.DesignSpec(8, 5, 3)),
]


# One label per estimator kind.
LABELS = [
    "sample-r",
    "chain-ratio",
    "gen-power:0.3,-0.2,0.1,0.05",
    "h-linear:0.5,-0.1",
    "h-power:0.5,-0.1",
    "t-linear:0.3,-0.2,0.1,0.05",
    "t-power:0.3,-0.2,0.1,0.05",
    "difference:0.3,-0.2,0.1,0.05",
    "td-star:power",
    "td-star:ratio",
    "td-star:linear",
    "td-star:inverse",
]


def _pair_statistics(frame, design):
    """stats_rows over every (first, second) pair, spelled out pair by pair."""
    N, n1, n = design.N, design.n1, design.n
    first_all = np.array(list(itertools.combinations(range(N), n1)))
    patterns = np.array(list(itertools.combinations(range(n1), n)))
    first = np.repeat(first_all, len(patterns), axis=0)
    # C order, as the kernel's index rows in enumerate_exact: numpy sums a
    # row of 8 or more values pairwise along C rows, in another order
    # along the F-ordered view this reshape returns when C(n1, n) == 1
    second = np.ascontiguousarray(first_all[:, patterns].reshape(-1, n))
    aux = c2p.KnownAux.from_frame(frame)
    return _kernels.stats_rows(frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2)


def _enumerate_per_pair(frame, design, estimator, max_skip_fraction):
    spec = c2p.parse_estimator(estimator)
    rho = c2p.population_moments(frame).rho_yx
    values, codes = evaluate_rows(spec, _pair_statistics(frame, design))
    k, skipped, reasons, mean, mse = _aggregate(values, codes, rho)
    _check_skip_budget(skipped, values.shape[0], reasons, max_skip_fraction)
    return EnumerationResult(
        design=design,
        estimator=spec.label(),
        rho_yx=rho,
        pairs_total=values.shape[0],
        pairs_used=k,
        pairs_skipped=skipped,
        skip_reasons=reasons,
        mean_estimate=mean,
        bias=mean - rho,
        exact_mse=mse,
    )


def _outcome(run, *args):
    try:
        return run(*args)
    except Corr2PhaseError as exc:
        return type(exc)


class TestEnumerationMatchesPerPair:
    """enumerate_exact pairs per-subset statistics by rank; the reference
    computes every pair's statistics from its explicit index rows."""

    def test_labels_cover_every_kind(self):
        assert sorted(c2p.parse_estimator(label).kind for label in LABELS) == sorted(
            ESTIMATOR_KINDS
        )

    @pytest.mark.parametrize("population, design", DIFFERENTIAL_DESIGNS)
    @pytest.mark.parametrize("budget", [0.01, 1.0])
    def test_every_kind(self, population, design, budget, six_frame):
        frame = {"six": six_frame, "ties": TIES}.get(population)
        if frame is None:
            frame = c2p.random_population(design.N, seed=design.N)
        for label in LABELS:
            expect = _outcome(_enumerate_per_pair, frame, design, label, budget)
            got = _outcome(c2p.enumerate_exact, frame, design, label, 4_000_000, budget)
            assert got == expect, label

    def test_tie_frame_raises_every_skip(self):
        flags = _pair_statistics(TIES, c2p.DesignSpec(8, 5, 3)).flags
        assert set(np.unique(flags)) == {
            0, _kernels.FLAG_DEGENERATE, _kernels.FLAG_NONFINITE, _kernels.FLAG_SINGULAR
        }
        seen = set()
        for label in LABELS:
            result = c2p.enumerate_exact(
                TIES, c2p.DesignSpec(8, 5, 3), label, max_skip_fraction=1.0
            )
            seen |= set(result.skip_reasons)
        assert seen == set(SKIP_LABELS.values())


def _pair_rows_per_pair(first_stats, second_stats, first_sets, subsets, aux):
    """pair_rows spelled out one pair at a time in Python floats.

    Pairs each first-phase set with its n-subsets in itertools order,
    finds each subset's entry by lookup rather than by rank, divides by
    the known z moments here, and builds one row per pair, [r, u, v, w,
    a, alpha, beta, gamma, delta], and its flag (degenerate before
    nonfinite before singular).
    """
    f, s = first_stats, second_stats
    where = {sub: i for i, sub in enumerate(subsets)}
    n = len(subsets[0])
    rows, flags = [], []
    for t, first in enumerate(first_sets):
        f_flag = int(f.flags[t])
        for second in itertools.combinations(first, n):
            j = where[second]
            with np.errstate(all="ignore"):
                u, v, w, a = (
                    float(np.float64(num) / den)
                    for num, den in (
                        (s.xbar[j], float(f.xbar[t])),
                        (s.s2_x[j], float(f.s2_x[t])),
                        (f.zbar[t], aux.zbar),
                        (f.s2_z[t], aux.sz2),
                    )
                )
            row = [float(s.r[j]), u, v, w, a] + [
                float(s.alpha[j]), float(s.beta[j]), float(s.gamma[j]), float(s.delta[j])
            ]
            if (f_flag | int(s.flags[j])) & _kernels.FLAG_DEGENERATE:
                flag = _kernels.FLAG_DEGENERATE
            elif not all(map(math.isfinite, row[:5])):
                flag = _kernels.FLAG_NONFINITE
            elif s.flags[j] == _kernels.FLAG_SINGULAR:
                flag = _kernels.FLAG_SINGULAR
            else:
                flag = 0
            rows.append(row)
            flags.append(flag)
    return np.array(rows), np.array(flags, np.uint8)


class TestPairRows:
    """pair_rows against a per-pair Python oracle; TestEnumerationMatchesPerPair
    leans on it, since its reference, stats_rows, runs pair_rows too."""

    def test_matches_per_pair_oracle(self):
        design = c2p.DesignSpec(8, 5, 3)
        aux = c2p.KnownAux.from_frame(TIES)
        first_sets = list(itertools.combinations(range(design.N), design.n1))
        subsets = list(itertools.combinations(range(design.N), design.n))
        first = np.array(first_sets)
        first_stats = _kernels.first_phase_rows(TIES.x, TIES.z, first)
        second_stats = _kernels.second_phase_rows(TIES.y, TIES.x, TIES.z, np.array(subsets))
        patterns = np.array(list(itertools.combinations(range(design.n1), design.n)))
        i2 = _kernels.subset_ranker(design.N, design.n)(first, patterns)
        stats = _kernels.pair_rows(first_stats, second_stats, i2, aux.zbar, aux.sz2)
        want_rows, want_flags = _pair_rows_per_pair(
            first_stats, second_stats, first_sets, subsets, aux
        )
        assert set(np.unique(stats.flags)) == {
            0, _kernels.FLAG_DEGENERATE, _kernels.FLAG_NONFINITE, _kernels.FLAG_SINGULAR
        }
        b, k = i2.shape
        assert {name: f.shape for name, f in stats._asdict().items()} == {
            name: (b, 1) if name in ("w", "a") else (b, k) for name in stats._fields
        }
        np.testing.assert_array_equal(stats.flags.reshape(-1), want_flags)
        rows = np.column_stack([np.broadcast_to(f, (b, k)).reshape(-1) for f in stats[:-1]])
        # r, u, v, w, a where the pair is not degenerate or nonfinite, the
        # weights where it is not flagged at all
        core = (want_flags & (_kernels.FLAG_DEGENERATE | _kernels.FLAG_NONFINITE)) == 0
        plain = want_flags == 0
        for keep, cols in ((core, slice(0, 5)), (plain, slice(5, 9))):
            np.testing.assert_array_equal(
                rows[keep, cols].view(np.int64), want_rows[keep, cols].view(np.int64)
            )


@st.composite
def _small_frames(draw):
    """TIES, a random_population frame, or a frame of small integers
    whose draws tie, go constant and hit a zero first-phase mean of x."""
    kind = draw(st.sampled_from(["ties", "random", "integers"]))
    if kind == "ties":
        return TIES
    N = draw(st.integers(4, 10))
    if kind == "random":
        return c2p.random_population(N, draw(st.integers(0, 2**32 - 1)))
    column = st.lists(st.integers(-2, 3), min_size=N, max_size=N).filter(
        lambda c: len(set(c)) > 1
    )
    y, x, z = (np.array(draw(column), float) for _ in range(3))
    assume(z.mean() != 0.0)
    return c2p.PopulationFrame(y=y, x=x, z=z)


class TestSampleStatisticsMatchesKernel:
    """sample_statistics is the one-row case of the kernels: it raises the
    error that a draw's stats_rows flags name, or returns its entry."""

    @given(
        frame=_small_frames(),
        sizes=st.tuples(st.integers(2, 10), st.integers(2, 10)),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_errors_and_values(self, frame, sizes, seed):
        n1 = min(max(sizes), frame.N)
        n = min(min(sizes), n1)
        design = c2p.DesignSpec(frame.N, n1, n)
        aux = c2p.KnownAux.from_frame(frame)
        first, second = _kernels.draw_rows(frame.N, n1, n, reps=20, seed=seed)
        stats = _kernels.stats_rows(frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2)
        xbar1 = _kernels.first_phase_rows(frame.x, frame.z, first).xbar
        for i in range(first.shape[0]):
            sample = c2p.TwoPhaseSample(design, first[i], second[i])
            flag = stats.flags[i, 0]
            if flag == _kernels.FLAG_DEGENERATE:
                with pytest.raises(DegenerateSample):
                    c2p.sample_statistics(frame, sample, aux)
                continue
            if xbar1[i] == 0.0:
                with pytest.raises(SingularDenominator):
                    c2p.sample_statistics(frame, sample, aux)
                continue
            one = c2p.sample_statistics(frame, sample, aux)
            got = (one.r, one.u, one.v, one.w, one.a)
            assert got == tuple(getattr(stats, name)[i, 0] for name in "ruvwa"), i
            if flag == _kernels.FLAG_SINGULAR:
                continue
            assert flag == 0
            weights = c2p.estimated_optimum_constants(one).weights()
            kernel = (stats.alpha, stats.beta, stats.gamma, stats.delta)
            assert weights == tuple(w[i, 0] for w in kernel), i


def _outcome_and_message(run, *args):
    try:
        return run(*args)
    except Corr2PhaseError as exc:
        return type(exc), str(exc)


class TestEnumerationBlocks:
    @pytest.mark.parametrize(
        "frame, design",
        [(TIES, c2p.DesignSpec(8, 5, 3)), (c2p.random_population(9, 9), c2p.DesignSpec(9, 7, 4))],
    )
    @pytest.mark.parametrize("budget", [0.01, 1.0])
    def test_one_first_phase_set_per_block(self, monkeypatch, frame, design, budget):
        def outcomes():
            return [
                _outcome_and_message(c2p.enumerate_exact, frame, design, label, 4_000_000, budget)
                for label in LABELS
            ]

        want = outcomes()
        blocks = []
        pair_rows = _kernels.pair_rows

        def one_set_pair_rows(first_stats, second_stats, i2, *aux):
            blocks.append(i2.shape[0])
            return pair_rows(first_stats, second_stats, i2, *aux)

        monkeypatch.setattr(_kernels, "chunk_rows", lambda width, cap=16384: 1)
        monkeypatch.setattr(_kernels, "pair_rows", one_set_pair_rows)
        assert outcomes() == want
        assert set(blocks) == {1}
        assert len(blocks) == len(LABELS) * math.comb(design.N, design.n1)


class TestSimulationChunks:
    """simulate evaluates each chunk as soon as it is drawn; neither the
    chunk size nor the worker count may change a result or an error."""

    REPS = 41  # chunks of 4 leave a one-replication last chunk

    @pytest.mark.parametrize(
        "frame, design, budget",
        [(TIES, c2p.DesignSpec(8, 5, 3), 1.0),
         (TIES, c2p.DesignSpec(8, 5, 3), 0.01),
         (c2p.synthetic_population(200, 3), c2p.DesignSpec(200, 30, 10), 0.01)],
        ids=["ties-budget-1.0", "ties-budget-0.01", "synthetic"],
    )
    def test_chunk_size_and_workers(self, monkeypatch, frame, design, budget):
        def outcomes(workers):
            return [
                _outcome_and_message(
                    c2p.simulate, frame, design, label, self.REPS, 20, workers, budget
                )
                for label in LABELS
            ]

        # the default run is one chunk
        assert _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n1) > self.REPS
        want = outcomes(1)
        if budget == 1.0:
            seen = set().union(*(result.skip_reasons for result in want))
            assert seen == set(SKIP_LABELS.values())
        for chunk in (1, 4):
            monkeypatch.setattr(_kernels, "chunk_rows", lambda width, cap=16384: chunk)
            for workers in (1, 2):
                assert outcomes(workers) == want, (chunk, workers)

    @pytest.mark.parametrize("chunk", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_thread(self, monkeypatch, chunk, workers):
        # every draw and stats call of a thread writes into that thread's
        # one workspace, and none outlives the call
        frame, design = c2p.synthetic_population(200, 3), c2p.DesignSpec(200, 30, 10)
        want = c2p.simulate(frame, design, "td-star:linear", self.REPS, 20, 1, 0.01)
        made = []
        draw_rows, stats_rows = _kernels.draw_rows, _kernels.stats_rows

        def drawing(*args, work, **kwargs):
            assert isinstance(work, _kernels.Workspace)
            if not any(ref() is work for ref in made):
                made.append(weakref.ref(work))
            return draw_rows(*args, work=work, **kwargs)

        def stats(*args, work):
            assert any(ref() is work for ref in made)
            return stats_rows(*args, work=work)

        monkeypatch.setattr(_kernels, "chunk_rows", lambda width, cap=16384: chunk)
        monkeypatch.setattr(_kernels, "draw_rows", drawing)
        monkeypatch.setattr(_kernels, "stats_rows", stats)
        got = c2p.simulate(frame, design, "td-star:linear", self.REPS, 20, workers, 0.01)
        assert got == want
        spans = -(-self.REPS // chunk)  # 11 spans of 4
        assert len(made) == min(workers, spans, os.cpu_count() or 1)
        assert all(ref() is None for ref in made)

    @pytest.mark.parametrize(
        "workers, cpus, chunk, threads",
        [
            (4096, 4, 1, 4),  # 41 spans, capped by the CPUs
            (4096, 64, 4, 11),  # 11 spans, capped by the spans
            (3, 8, 1, 3),
            (8, None, 1, None),  # an unknown CPU count means one thread
            (8, 8, 41, None),  # one span
        ],
    )
    def test_thread_pool_size(self, monkeypatch, workers, cpus, chunk, threads):
        # a fake pool records its size and runs the spans in order on this
        # thread, so no thread is started; a one-thread run makes no pool
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        design = c2p.DesignSpec(8, 5, 3)
        want = c2p.simulate(TIES, design, "td-star:linear", self.REPS, 20, 1, 1.0)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_kernels, "chunk_rows", lambda width, cap=16384: chunk)
        got = c2p.simulate(TIES, design, "td-star:linear", self.REPS, 20, workers, 1.0)
        assert got == want
        assert sizes == ([] if threads is None else [threads])


class TestSimulation:
    def test_census_replications_are_exact(self, six_frame):
        m = c2p.population_moments(six_frame)
        result = c2p.simulate(six_frame, CENSUS, "sample-r", reps=5, seed=3)
        assert result.mean_estimate == m.rho_yx
        assert result.empirical_mse == 0.0
        assert result.bias == 0.0
        assert result.reps_used == 5

    def test_result_metadata(self, chain_frame, chain_design):
        m = c2p.population_moments(chain_frame)
        result = c2p.simulate(
            chain_frame, chain_design, "sample-r", reps=500, seed=11
        )
        assert result.design == chain_design
        assert result.estimator == "sample-r"
        assert result.seed == 11
        assert result.rho_yx == m.rho_yx
        assert result.reps_requested == 500
        assert result.reps_used + result.reps_skipped == 500
        assert result.analytic_variance == c2p.var_r(m, chain_design.n)
        assert math.isfinite(result.mc_se_mean)
        assert math.isfinite(result.mc_se_mse)

    def test_workers_do_not_change_the_result(self, chain_frame, chain_design):
        # 20000 reps at N=500 spans three chunks, so threads really
        # interleave here.
        runs = [
            c2p.simulate(
                chain_frame,
                chain_design,
                "sample-r",
                reps=20000,
                seed=11,
                workers=k,
            )
            for k in (1, 8)
        ]
        assert runs[0] == runs[1]

    def test_seed_changes_the_result(self, chain_frame, chain_design):
        a = c2p.simulate(chain_frame, chain_design, "sample-r", reps=300, seed=1)
        b = c2p.simulate(chain_frame, chain_design, "sample-r", reps=300, seed=2)
        assert a.mean_estimate != b.mean_estimate

    def test_estimator_spec_instance_accepted(self, six_frame):
        spec = c2p.parse_estimator("t-linear:0,0,0,0")
        by_spec = c2p.simulate(six_frame, NESTED, spec, reps=64, seed=9)
        by_text = c2p.simulate(
            six_frame, NESTED, "t-linear:0,0,0,0", reps=64, seed=9
        )
        assert by_spec == by_text

    def test_all_replications_skipped(self, six_frame):
        with pytest.raises(AllSamplesDegenerate):
            c2p.simulate(
                six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power", reps=50, seed=1
            )

    def test_skip_budget_enforced(self):
        ties = c2p.PopulationFrame(
            y=np.array([1.0, 1, 1, 1, 2, 3]),
            x=np.array([2.0, 1, 4, 3, 8, 6]),
            z=np.array([1.0, 3, 2, 5, 4, 8]),
        )
        with pytest.raises(ExcessiveSkips):
            c2p.simulate(ties, NESTED, "sample-r", reps=400, seed=2)

    def test_skip_reason_labels(self, six_frame):
        try:
            c2p.simulate(
                six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power", reps=50, seed=1
            )
        except AllSamplesDegenerate as exc:
            assert "singular_plugin_constants" in str(exc)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reps": 0, "seed": 1},
            {"reps": 10, "seed": -1},
            {"reps": 10, "seed": 1, "workers": 0},
        ],
    )
    def test_parameter_guards(self, six_frame, kwargs):
        with pytest.raises(InvalidParameter):
            c2p.simulate(six_frame, NESTED, "sample-r", **kwargs)

    @pytest.mark.parametrize("budget", [math.nan, -0.5, 1.5, math.inf])
    @pytest.mark.parametrize("run", ["simulate", "enumerate"])
    def test_skip_fraction_range(self, six_frame, run, budget):
        with pytest.raises(InvalidParameter, match="max_skip_fraction"):
            if run == "simulate":
                c2p.simulate(six_frame, NESTED, "sample-r", reps=10, seed=1,
                             max_skip_fraction=budget)
            else:
                c2p.enumerate_exact(six_frame, NESTED, "sample-r",
                                    max_skip_fraction=budget)

    def test_full_skip_fraction_accepted(self, six_frame):
        # 5 of the 60 pairs break the inverse form's denominator
        result = c2p.enumerate_exact(
            six_frame, NESTED, "td-star:inverse", max_skip_fraction=1.0
        )
        assert result.pairs_skipped == 5
        sim = c2p.simulate(six_frame, NESTED, "td-star:inverse", reps=200, seed=1,
                           max_skip_fraction=1.0)
        assert sim.reps_skipped > 0

    def test_reps_beyond_memory_is_typed(self, six_frame):
        with pytest.raises(TooManySamples, match="replications"):
            c2p.simulate(six_frame, NESTED, "sample-r", reps=10**18, seed=1)

    def test_design_population_mismatch(self, six_frame):
        with pytest.raises(InvalidDesign):
            c2p.simulate(six_frame, c2p.DesignSpec(7, 4, 3), "sample-r", reps=5, seed=1)

    def test_overflowing_square_is_typed(self):
        # the mean is finite, but the squared error of 1e200 is not
        with pytest.raises(NonFiniteEstimate):
            _aggregate(np.array([1e200, 1.0]), np.zeros(2, np.uint8), 0.5)

    def test_standard_errors_do_not_cancel(self):
        # 20k values that spread by 1e-6 around 0.95: a one-pass
        # ss - k*mean**2 keeps about 4 correct digits here (9e-5 off)
        rng = np.random.Generator(np.random.PCG64(12))
        kept = 0.95 + 1e-6 * rng.standard_normal(20_000)
        rho = 0.9
        k, _, _, mean, mse = _aggregate(kept, np.zeros(kept.size, np.uint8), rho)
        se_mean, se_mse = _standard_errors(kept, rho, mean, mse)

        def exact_se(values):
            values = [Fraction(v) for v in values.tolist()]
            centre = sum(values) / k
            var = sum((v - centre) ** 2 for v in values) / (k - 1)
            return math.sqrt(var / k)

        err = kept - rho
        assert se_mean == pytest.approx(exact_se(kept), rel=1e-14, abs=0)
        assert se_mse == pytest.approx(exact_se(err * err), rel=1e-14, abs=0)

    def test_overflowing_enumeration_is_typed(self):
        # The plug-in power estimator reaches 1.3e308 on this design, so
        # the exact sum of the kept values overflows.
        frame = c2p.random_population(16, seed=3)
        with pytest.raises(NonFiniteEstimate, match="overflows"):
            c2p.enumerate_exact(frame, c2p.DesignSpec(16, 8, 4), "td-star:power")


MAX = sys.float_info.max
# Exact totals, in units of 2**-1074, from this magnitude up round
# beyond MAX: the midpoint to 2**1024 rounds to even, which is 2**1024.
OVERFLOW_UNITS = (2**1024 - 2**970) << 1074


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _exact_units(terms: np.ndarray) -> int:
    """The exact sum of float terms as an integer multiple of 2**-1074."""
    return sum(p * ((1 << 1074) // q) for p, q in map(float.as_integer_ratio, terms.tolist()))


@st.composite
def _finite_terms(draw):
    """Finite float64 arrays: any exponent, subnormals, signed zeros,
    terms near MAX, and exact cancellations (x, -x)."""
    atoms = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    edges = draw(st.lists(
        st.sampled_from([MAX, -MAX, np.nextafter(MAX, 0), 2.0**1023, -(2.0**1023),
                         2.0**970, 5e-324, -5e-324, 2.0**-1022, 0.0, -0.0]),
        max_size=6,
    ))
    n = draw(st.integers(0, 3000))
    lo = draw(st.integers(-1100, 1000))
    hi = draw(st.integers(lo, 1000))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    bulk = np.ldexp(rng.standard_normal(n), rng.integers(lo, hi + 1, n))
    terms = np.concatenate([atoms, edges, bulk])
    cancel = draw(st.integers(0, terms.shape[0]))
    terms = np.concatenate([terms, -terms[:cancel]])
    rng.shuffle(terms)
    return terms


class TestExactSum:
    """_sum is correctly rounded, so it equals math.fsum bit for bit
    wherever fsum gives an answer."""

    @given(terms=_finite_terms())
    @settings(max_examples=150, deadline=None)
    def test_equals_fsum(self, terms):
        exact = _exact_units(terms)
        if abs(exact) >= OVERFLOW_UNITS:
            with pytest.raises(NonFiniteEstimate, match="overflows"):
                _sum(terms)
            return
        got = _sum(terms)
        try:
            assert _bits(got) == _bits(math.fsum(terms.tolist()))
        except OverflowError:
            # fsum gives up on an intermediate overflow; the exact total
            # is finite, and _sum returns it rounded
            assert got == exact / (1 << 1074)

    @pytest.mark.parametrize(
        "terms",
        [
            [math.inf],
            [-math.inf],
            [math.nan],
            [1.0, math.inf, -math.inf],
            [MAX, -MAX, -math.nan],
            [MAX, MAX],
            [MAX, 2.0**970],  # a tie that rounds to even: 2**1024
            [-MAX, -(2.0**1000)],
        ],
    )
    def test_non_finite_terms_and_totals_raise(self, terms):
        with pytest.raises(NonFiniteEstimate, match="overflows"):
            _sum(np.array(terms))

    def test_largest_finite_total(self):
        assert _sum(np.array([MAX, 2.0**970 - 2.0**917])) == MAX
        assert _sum(np.array([-MAX, -(2.0**969)])) == -MAX

    def test_intermediate_overflow_is_summed(self):
        # fsum overflows while adding although the exact sum is 1e308
        terms = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(terms.tolist())
        assert _sum(terms) == 1e308

    @pytest.mark.parametrize(
        "terms", [[], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [-5e-324, 5e-324]]
    )
    def test_zero_sums_are_positive_zero(self, terms):
        # as math.fsum gives on Python 3.11
        assert _bits(_sum(np.array(terms))) == _bits(0.0)

    def test_blocks(self, monkeypatch):
        # small blocks exercise the multi-block path and its seams
        rng = np.random.Generator(np.random.PCG64(31))
        arrays = [
            0.9 + 0.01 * rng.standard_normal(1000),
            np.ldexp(rng.standard_normal(1000), rng.integers(-1080, 1000, 1000)),
            np.array([1e308, 1e308, -1e308, -1e308, 5e-324, -0.0, 2.0**-1030, 1.0]),
        ]
        want = [_exact_units(terms) / (1 << 1074) for terms in arrays]
        monkeypatch.setattr(montecarlo, "SUM_BLOCK", 3)
        for terms, expect in zip(arrays, want):
            assert _bits(_sum(terms)) == _bits(expect)
        with pytest.raises(NonFiniteEstimate):
            _sum(np.array([1.0, 2.0, 3.0, 4.0, math.nan]))
        with pytest.raises(NonFiniteEstimate):
            _sum(np.array([MAX, 1.0, 2.0, MAX]))

    @given(terms=_finite_terms(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_totals_of_pieces_round_like_the_whole(self, terms, data):
        # enumerate_exact adds up exact totals block by block and rounds
        # once; cut anywhere, that must be _sum of the whole, error included
        bad = data.draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2))
        for value in bad:
            terms = np.insert(terms, data.draw(st.integers(0, terms.shape[0])), value)
        k = terms.shape[0]
        cuts = sorted(data.draw(st.lists(st.integers(0, k), max_size=6)) + [0, k])
        total = 0
        for lo, hi in zip(cuts, cuts[1:]):
            total = montecarlo._add_totals(total, montecarlo._exact_total(terms[lo:hi]))
        if bad or abs(_exact_units(terms)) >= OVERFLOW_UNITS:
            message = f"a sum over {k} kept replications overflows a float"
            for run, args in ((montecarlo._round_total, (total, k)), (_sum, (terms,))):
                with pytest.raises(NonFiniteEstimate) as info:
                    run(*args)
                assert str(info.value) == message
            return
        assert _bits(montecarlo._round_total(total, k)) == _bits(_sum(terms))

    def test_skip_reasons_keep_label_order(self):
        codes = np.array([5, 3, 0, 1, 3, 2, 0, 4, 5], np.uint8)
        k, skipped, reasons, mean, mse = _aggregate(np.arange(9.0), codes, 0.5)
        assert (k, skipped) == (2, 7)
        assert list(reasons.items()) == [
            ("degenerate_sample", 1),
            ("nonfinite_value", 1),
            ("singular_plugin_constants", 2),
            ("nonpositive_ratio", 1),
            ("singular_denominator", 2),
        ]
        assert (mean, mse) == (4.0, ((2.0 - 0.5) ** 2 + (6.0 - 0.5) ** 2) / 2)


@pytest.fixture(scope="module")
def setting():
    frame = c2p.random_population(200, seed=5)
    return c2p.population_moments(frame), c2p.DesignSpec(200, 60, 20)


class TestAnalyticVarianceWiring:
    def test_fixed_kinds(self, setting):
        m, d = setting
        n, n1 = d.n, d.n1
        expected = {
            "sample-r": c2p.var_r(m, n),
            "chain-ratio": c2p.var_t_class(m, n, n1, (-1.0, -1.0, -1.0, -1.0)),
            "t-linear:0.3,-0.2,0.1,0.05": c2p.var_t_class(
                m, n, n1, (0.3, -0.2, 0.1, 0.05)
            ),
            "h-power:0.3,-0.2": c2p.var_h_class(m, n, n1, (0.3, -0.2)),
            "difference:0.3,-0.2,0.1,0.05": c2p.var_difference_class(
                m, n, n1, (0.3, -0.2, 0.1, 0.05)
            ),
        }
        for text, var in expected.items():
            assert analytic_variance_for(m, d, c2p.parse_estimator(text)) == var

    def test_plugin_kinds_get_the_minimum(self, setting):
        m, d = setting
        for variant in ("power", "ratio", "linear", "inverse"):
            spec = c2p.parse_estimator(f"td-star:{variant}")
            assert analytic_variance_for(m, d, spec) == c2p.min_var_td(
                m, d.n, d.n1
            )

    def test_undefined_variance_is_none(self):
        m = c2p.normal_theory_moments(0.0)
        d = c2p.DesignSpec(200, 60, 20)
        assert analytic_variance_for(m, d, c2p.parse_estimator("td-star:linear")) is None


class TestPopulationFactories:
    def test_synthetic_is_reproducible(self):
        a = c2p.synthetic_population(500, seed=4)
        b = c2p.synthetic_population(500, seed=4)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_synthetic_has_strong_correlation(self):
        m = c2p.population_moments(c2p.synthetic_population(500, seed=4))
        assert 0.85 <= m.rho_yx <= 0.97
        assert m.rho_xz > 0.5

    def test_random_populations_vary(self):
        a = c2p.random_population(200, seed=0)
        b = c2p.random_population(200, seed=1)
        assert not np.array_equal(a.y, b.y)
        assert np.array_equal(a.y, c2p.random_population(200, seed=0).y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_population_supports_the_theory(self, seed):
        frame = c2p.random_population(200, seed=seed)
        m = c2p.population_moments(frame)
        c2p.optimum_constants(m)
        assert c2p.min_var_td(m, 20, 60) > 0.0
