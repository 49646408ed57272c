import itertools

import numpy as np
import pytest
from scipy import stats as scipy_stats

import corr2phase as c2p
from corr2phase import _kernels
from corr2phase.errors import (
    DegenerateSample,
    InvalidDesign,
    InvalidParameter,
    NonPositiveVariance,
    SingularDenominator,
)

# Frozen values from tests/oracles.py for the six-unit population with
# first_phase={0,1,2,3}, second_phase={0,1,2}.
SIX_SAMPLE = {
    "u": 14.0 / 15.0,
    "v": 1.4,
    "w": 0.717391304347826,
    "a": 0.47297297297297297,
    "r": 0.6546536707079772,
    "s_yx": 1.0,
    "s2_y": 1.0,
    "s2_x": 2.3333333333333335,
    "s2_z": 1.0,
    "s2_x_first": 1.6666666666666667,
    "s2_z_first": 2.9166666666666665,
    "c_x_hat": 0.6546536707079772,
    "c_z_hat": 0.5,
}
SIX_SAMPLE_DELTAS = {
    (2, 1, 0): 0.5345224838248488,
    (0, 3, 0): 0.3818017741606063,
    (1, 2, 0): 0.6998542122237652,
    (2, 2, 0): 0.9285714285714286,
    (0, 4, 0): 1.5,
    (1, 3, 0): 0.9819805060619657,
    (2, 0, 1): -0.6123724356957945,
    (0, 2, 1): 0.4374088826398532,
    (1, 1, 1): -0.1336306209562122,
    (2, 0, 2): 0.75,
    (0, 2, 2): 0.6071428571428571,
    (1, 1, 2): 0.1636634176769943,
    (0, 0, 3): 0.0,
    (0, 0, 4): 1.5,
}


def six_sample(six_frame):
    design = c2p.DesignSpec(N=6, n1=4, n=3)
    sample = c2p.TwoPhaseSample(
        design=design,
        first_phase=np.array([0, 1, 2, 3]),
        second_phase=np.array([0, 1, 2]),
    )
    return c2p.sample_statistics(six_frame, sample, c2p.KnownAux.from_frame(six_frame))


class TestDesignAndDraw:
    def test_design_validation(self):
        with pytest.raises(InvalidDesign):
            c2p.DesignSpec(N=10, n1=4, n=5)
        with pytest.raises(InvalidDesign):
            c2p.DesignSpec(N=10, n1=11, n=2)
        with pytest.raises(InvalidDesign):
            c2p.DesignSpec(N=10, n1=4, n=1)
        with pytest.raises(InvalidDesign):
            c2p.DesignSpec(N=10, n1=4.0, n=2)

    def test_census_draw_is_whole_population(self, six_frame):
        design = c2p.DesignSpec(N=5, n1=5, n=5)
        frame = c2p.PopulationFrame(
            y=np.arange(5.0) + np.array([0.0, 1.0, -1.0, 2.0, 0.5]),
            x=np.array([2.0, 1.0, 4.0, 3.0, 8.0]),
            z=np.array([1.0, 3.0, 2.0, 5.0, 4.0]),
        )
        for seed in (0, 7, 991):
            sample = c2p.draw_two_phase(frame, design, seed=seed)
            assert list(sample.first_phase) == [0, 1, 2, 3, 4]
            assert list(sample.second_phase) == [0, 1, 2, 3, 4]

    def test_draw_determinism(self, six_frame):
        design = c2p.DesignSpec(N=6, n1=4, n=3)
        a = c2p.draw_two_phase(six_frame, design, seed=42, rep=5)
        b = c2p.draw_two_phase(six_frame, design, seed=42, rep=5)
        assert np.array_equal(a.first_phase, b.first_phase)
        assert np.array_equal(a.second_phase, b.second_phase)
        c = c2p.draw_two_phase(six_frame, design, seed=42, rep=6)
        assert not (
            np.array_equal(a.first_phase, c.first_phase)
            and np.array_equal(a.second_phase, c.second_phase)
        )

    def test_sample_container_validation(self):
        design = c2p.DesignSpec(N=6, n1=4, n=3)
        good_second = np.array([0, 1, 2])
        for first, second in [
            (np.array([3, 1, 2, 0]), good_second),
            (np.array([0, 1, 2, 9]), good_second),
            (np.array([0, 1, 2, 3]), np.array([0, 1, 4])),
            (np.array([0, 1, 1, 3]), np.array([0, 1, 3])),
        ]:
            with pytest.raises(InvalidDesign):
                c2p.TwoPhaseSample(design=design, first_phase=first, second_phase=second)

    def test_first_phase_sets_uniform(self):
        # All C(6,4)=15 first-phase subsets should be equally likely.
        # 200,000 counter-RNG replications under one seed; the chi-square
        # is over exact subset counts.
        N, n1, n = 6, 4, 2
        reps = 200_000
        first, _ = _kernels.draw_rows(N, n1, n, reps=reps, seed=20260819)
        subsets = {
            combo: i for i, combo in enumerate(itertools.combinations(range(N), n1))
        }
        keys = (first * np.array([1000, 100, 10, 1])).sum(axis=1)
        key_of = {
            sum(v * k for v, k in zip(combo, (1000, 100, 10, 1))): idx
            for combo, idx in subsets.items()
        }
        counts = np.zeros(len(subsets), dtype=np.int64)
        uniq, cnt = np.unique(keys, return_counts=True)
        for value, howmany in zip(uniq, cnt):
            counts[key_of[int(value)]] = howmany
        assert counts.sum() == reps
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.001, counts

    def test_first_phase_sets_uniform_across_seeds(self):
        # Smaller companion check: distinct seeds at rep 0 mix as well.
        N, n1 = 6, 4
        subsets = {
            combo: i for i, combo in enumerate(itertools.combinations(range(N), n1))
        }
        counts = np.zeros(len(subsets), dtype=np.int64)
        for seed in range(3000):
            first, _ = _kernels.draw_rows(N, n1, 2, reps=1, seed=seed)
            counts[subsets[tuple(int(v) for v in first[0])]] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.001, counts


class TestSampleStatistics:
    def test_six_unit_sample_fields(self, six_frame):
        stats = six_sample(six_frame)
        assert stats.n == 3 and stats.n1 == 4
        for name, expect in SIX_SAMPLE.items():
            assert getattr(stats, name) == pytest.approx(expect, rel=1e-13), name

    def test_six_unit_sample_delta_hat(self, six_frame):
        stats = six_sample(six_frame)
        for triple, expect in SIX_SAMPLE_DELTAS.items():
            got = stats.delta_hat[triple]
            if expect == 0.0:
                assert abs(got) < 1e-15, triple
            else:
                assert got == pytest.approx(expect, rel=1e-13), triple
        assert stats.delta_hat[(2, 0, 0)] == 1.0
        assert stats.delta_hat[(0, 2, 0)] == 1.0
        assert stats.delta_hat[(0, 0, 2)] == 1.0

    def test_census_collapses_all_ratios(self, census_frame):
        N = census_frame.N
        design = c2p.DesignSpec(N=N, n1=N, n=N)
        sample = c2p.draw_two_phase(census_frame, design, seed=1)
        stats = c2p.sample_statistics(
            census_frame, sample, c2p.KnownAux.from_frame(census_frame)
        )
        m = c2p.population_moments(census_frame)
        assert (stats.u, stats.v, stats.w, stats.a) == (1.0, 1.0, 1.0, 1.0)
        assert stats.r == m.rho_yx

    def test_census_reproduces_population_table(self, census_frame):
        N = census_frame.N
        census = c2p.TwoPhaseSample(c2p.DesignSpec(N, N, N), np.arange(N), np.arange(N))
        m = c2p.population_moments(census_frame)
        stats = c2p.sample_statistics(census_frame, census, c2p.KnownAux(m.mean_z, m.s2_z))
        assert (stats.s2_y, stats.s2_x, stats.s2_z) == (m.s2_y, m.s2_x, m.s2_z)
        assert stats.delta_hat == {t: m.delta[t] for t in stats.delta_hat}

    def test_perfect_linear_relation_gives_unit_r(self):
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        frame = c2p.PopulationFrame(
            y=2.0 * x, x=x, z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0])
        )
        design = c2p.DesignSpec(N=6, n1=5, n=4)
        sample = c2p.draw_two_phase(frame, design, seed=3)
        stats = c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))
        assert stats.r == 1.0

    def test_constant_second_phase_variable_raises(self):
        frame = c2p.PopulationFrame(
            y=np.array([5.0, 5.0, 5.0, 1.0, 2.0, 3.0]),
            x=np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0]),
            z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0]),
        )
        design = c2p.DesignSpec(N=6, n1=4, n=3)
        sample = c2p.TwoPhaseSample(
            design=design,
            first_phase=np.array([0, 1, 2, 3]),
            second_phase=np.array([0, 1, 2]),
        )
        with pytest.raises(DegenerateSample):
            c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))

    def test_constant_off_its_rounded_mean_raises(self):
        # three 0.1 values have mean 0.10000000000000002, so the sum of
        # their squared deviations is not zero
        frame = c2p.PopulationFrame(
            y=np.array([0.1, 0.1, 0.1, 4.0, 5.0, 9.0]),
            x=np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0]),
            z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0]),
        )
        design = c2p.DesignSpec(N=6, n1=4, n=3)
        sample = c2p.TwoPhaseSample(
            design=design,
            first_phase=np.array([0, 1, 2, 3]),
            second_phase=np.array([0, 1, 2]),
        )
        with pytest.raises(DegenerateSample):
            c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))

    def test_zero_first_phase_mean_raises(self):
        frame = c2p.PopulationFrame(
            y=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0]),
            x=np.array([-1.0, 1.0, -2.0, 2.0, 5.0, 9.0]),
            z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0]),
        )
        design = c2p.DesignSpec(N=6, n1=4, n=3)
        sample = c2p.TwoPhaseSample(
            design=design,
            first_phase=np.array([0, 1, 2, 3]),
            second_phase=np.array([0, 1, 2]),
        )
        with pytest.raises(SingularDenominator):
            c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))

    def test_first_phase_variance_underflow_raises_as_flagged(self):
        # the first-phase sum of squares of x is positive but divided by
        # n1 - 1 it underflows to 0, while the second phase keeps a
        # positive one: the first-phase check, and the kernel's flag
        x = np.array([0.0, 3.148651039983582e-162, 0.0, 0.0, 0.0])
        frame = c2p.PopulationFrame(
            y=np.array([1.0, 2.0, 3.0, 4.0, 9.0]), x=x, z=np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        )
        first, second = np.arange(5), np.array([0, 1])
        aux = c2p.KnownAux.from_frame(frame)
        stats = _kernels.stats_rows(
            frame.y, frame.x, frame.z, first[None], second[None], aux.zbar, aux.sz2
        )
        assert stats.flags[0, 0] == _kernels.FLAG_DEGENERATE
        sample = c2p.TwoPhaseSample(c2p.DesignSpec(5, 5, 2), first, second)
        with pytest.raises(DegenerateSample, match="first-phase"):
            c2p.sample_statistics(frame, sample, aux)

    def test_underflowing_variance_product_is_a_typed_error(self):
        # s2_y * s2_x is about 1e-400 and underflows to 0, so r is not
        # finite and neither are the d_pqm the weights read: that is a
        # typed error, not a float division by zero
        frame = c2p.PopulationFrame(
            y=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0]) * 1e-100,
            x=np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0]) * 1e-100,
            z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0]),
        )
        sample = c2p.TwoPhaseSample(
            design=c2p.DesignSpec(N=6, n1=5, n=4),
            first_phase=np.arange(5),
            second_phase=np.arange(4),
        )
        with pytest.raises(InvalidParameter, match="d_220 is not finite"):
            c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))

    def test_population_mismatch_rejected(self, six_frame):
        design = c2p.DesignSpec(N=7, n1=4, n=3)
        sample = c2p.TwoPhaseSample(
            design=design,
            first_phase=np.array([0, 1, 2, 3]),
            second_phase=np.array([0, 1, 2]),
        )
        with pytest.raises(InvalidDesign):
            c2p.sample_statistics(six_frame, sample, c2p.KnownAux(zbar=1.0, sz2=1.0))


class TestKnownAux:
    def test_from_frame_matches_numpy(self, six_frame):
        aux = c2p.KnownAux.from_frame(six_frame)
        assert aux.zbar == np.mean(six_frame.z)
        assert aux.sz2 == pytest.approx(np.var(six_frame.z, ddof=1), rel=1e-15)

    def test_from_frame_matches_population_moments(self, census_frame):
        # simulate and enumerate build KnownAux from population_moments
        aux = c2p.KnownAux.from_frame(census_frame)
        m = c2p.population_moments(census_frame)
        assert (aux.zbar, aux.sz2) == (m.mean_z, m.s2_z)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            c2p.KnownAux(zbar=0.0, sz2=1.0)
        with pytest.raises(NonPositiveVariance):
            c2p.KnownAux(zbar=2.0, sz2=0.0)
        with pytest.raises(InvalidParameter):
            c2p.KnownAux(zbar=float("nan"), sz2=1.0)
