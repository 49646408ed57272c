import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase import _kernels as K
from corr2phase.errors import InvalidParameter
from oracles import draw_pair

# Frozen splitmix64 finalizer vectors from tests/oracles.py.
MIX_VECTORS = {
    0x0: 0x0000000000000000,
    0x1: 0x5692161D100B05E5,
    0x9E3779B97F4A7C15: 0xE220A8397B1DCDAF,
    0xFFFFFFFFFFFFFFFF: 0xB4D055FCF2CBBD7B,
    123456789: 0xF21C87D4233FFD60,
}

# Frozen draw reference (N=6, n1=4, n=2, seed=42) from tests/oracles.py,
# derived by an independent pure-python implementation of the counter
# scheme.
DRAW_REF_FIRST = [[2, 3, 4, 5], [0, 2, 3, 4], [1, 2, 3, 5]]
DRAW_REF_SECOND = [[2, 3], [2, 4], [1, 5]]


def synth(N=400, seed=11):
    return c2p.synthetic_population(N, seed)


class TestRngContract:
    def test_mix64_reference_vectors(self):
        xs = np.array(list(MIX_VECTORS), dtype=np.uint64)
        got = K.mix64(xs)
        for x, out in zip(MIX_VECTORS, got):
            assert int(out) == MIX_VECTORS[x], hex(x)

    def test_draw_reference(self):
        first, second = K.draw_rows(6, 4, 2, reps=3, seed=42)
        assert first.tolist() == DRAW_REF_FIRST
        assert second.tolist() == DRAW_REF_SECOND

    def test_rep_lo_slices_the_same_stream(self):
        full_f, full_s = K.draw_rows(30, 12, 5, reps=40, seed=3)
        part_f, part_s = K.draw_rows(30, 12, 5, reps=25, seed=3, rep_lo=15)
        assert np.array_equal(full_f[15:], part_f)
        assert np.array_equal(full_s[15:], part_s)

    def test_rows_sorted_and_nested(self):
        first, second = K.draw_rows(40, 17, 6, reps=200, seed=5)
        assert first.flags.c_contiguous and second.flags.c_contiguous
        assert np.all(np.diff(first, axis=1) > 0)
        assert np.all(np.diff(second, axis=1) > 0)
        for frow, srow in zip(first, second):
            assert set(srow).issubset(set(frow))

    def test_draw_validation(self):
        with pytest.raises(InvalidParameter):
            K.draw_rows(6, 7, 2, reps=1, seed=0)
        with pytest.raises(InvalidParameter):
            K.draw_rows(6, 4, 5, reps=1, seed=0)
        # 2**64 + 3 would otherwise wrap onto the stream of seed 3
        for seed in (-5, -1, 2**64, 2**64 + 3):
            with pytest.raises(InvalidParameter, match="seed"):
                K.draw_rows(6, 4, 2, reps=1, seed=seed)
        first, second = K.draw_rows(6, 4, 2, reps=2, seed=2**64 - 1)
        assert first.shape == (2, 4) and second.shape == (2, 2)
        # replication index rep_lo + t + 1 feeds the stream as a uint64
        first, _ = K.draw_rows(6, 4, 2, reps=1, seed=0, rep_lo=2**64 - 2)
        assert first.shape == (1, 4)
        for rep_lo, reps in ((2**64 - 1, 1), (2**64 - 2, 2), (0, 2**64)):
            with pytest.raises(InvalidParameter, match="replications"):
                K.draw_rows(6, 4, 2, reps=reps, seed=0, rep_lo=rep_lo)
        with pytest.raises(InvalidParameter, match="N \\* n1"):
            K.draw_rows(2**61, 2, 2, reps=1, seed=0)

    @pytest.mark.parametrize(
        "N, n1, n, reps, seed, rep_lo",
        [
            (10, 6, 3, 40, 7, 0),  # N <= 2*n1: the pool is the population
            (500, 400, 100, 4, 8, 0),
            (60, 12, 5, 500, 9, 0),  # far targets collide often
            (100_000, 400, 100, 3, 10, 0),
            (60, 12, 5, 30, 11, 123_456_789),
            (60, 12, 5, 30, 2**64 - 1, 0),
            (1_000, 30, 10, 20, 2**64 - 1, 2**40),
        ],
    )
    def test_draw_matches_oracle(self, N, n1, n, reps, seed, rep_lo):
        first, second = K.draw_rows(N, n1, n, reps=reps, seed=seed, rep_lo=rep_lo)
        for t in range(reps):
            f, s = draw_pair(N, n1, n, seed, rep_lo + t)
            assert first[t].tolist() == f, t
            assert second[t].tolist() == s, t


class TestStatsRows:
    def test_rows_match_scalar_statistics(self):
        frame = synth(N=60, seed=4)
        design = c2p.DesignSpec(N=60, n1=25, n=10)
        first, second = K.draw_rows(60, 25, 10, reps=50, seed=21)
        aux = c2p.KnownAux.from_frame(frame)
        rows, flags = K.stats_rows(
            frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2,
        )
        assert not np.any(flags)
        for i in (0, 17, 49):
            sample = c2p.TwoPhaseSample(
                design=design, first_phase=first[i], second_phase=second[i]
            )
            stats = c2p.sample_statistics(frame, sample, aux)
            expect = (stats.r, stats.u, stats.v, stats.w, stats.a)
            assert rows[i, : K.COL_A + 1] == pytest.approx(expect, rel=1e-12)
            opt = c2p.estimated_optimum_constants(stats)
            assert rows[i, K.COL_ALPHA :] == pytest.approx(opt.weights(), rel=1e-9)

    def test_degenerate_sample_flagged(self):
        y = np.array([5.0, 5.0, 5.0, 1.0, 2.0, 3.0])
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        z = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0])
        rows, flags = K.stats_rows(
            y, x, z, np.array([[0, 1, 2, 3]]), np.array([[0, 1, 2]]),
            23.0 / 6.0, 37.0 / 6.0,
        )
        assert flags[0] == K.FLAG_DEGENERATE
        assert np.isnan(rows[0, K.COL_R])

    def test_two_point_second_phase_flags_singular_only(self):
        frame_y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        z = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0])
        rows, flags = K.stats_rows(
            frame_y, x, z, np.array([[0, 1, 2, 3]]), np.array([[0, 1]]),
            23.0 / 6.0, 37.0 / 6.0,
        )
        # Plug-in constants are unusable at n=2 (the x moment table is
        # two-point degenerate) but the plain statistics stay valid.
        assert flags[0] == K.FLAG_SINGULAR
        assert np.all(np.isfinite(rows[0, : K.COL_A + 1]))
        assert np.isnan(rows[0, K.COL_ALPHA])

    @given(
        seed=st.integers(0, 2**64 - 1),
        lo=st.integers(0, 39),
        width=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_slices_round_like_the_full_call(self, seed, lo, width):
        # replication t is a pure function of (seed, t): a slice of the
        # draw, or a fresh draw from rep_lo, gives the same rows bit for bit
        hi = min(lo + width, 40)
        frame = synth(N=2000, seed=7)
        aux = c2p.KnownAux.from_frame(frame)
        cols = (frame.y, frame.x, frame.z)
        first, second = K.draw_rows(2000, 40, 10, reps=40, seed=seed)
        rows, flags = K.stats_rows(*cols, first, second, aux.zbar, aux.sz2)
        part_first, part_second = K.draw_rows(2000, 40, 10, reps=hi - lo, seed=seed, rep_lo=lo)
        for f, s in ((first[lo:hi], second[lo:hi]), (part_first, part_second)):
            got, got_flags = K.stats_rows(*cols, f, s, aux.zbar, aux.sz2)
            assert np.array_equal(got, rows[lo:hi], equal_nan=True)
            assert np.array_equal(got_flags, flags[lo:hi])


class TestSubsetRanker:
    @pytest.mark.parametrize("N, n", [(6, 3), (14, 6), (12, 12), (9, 1), (70, 68)])
    def test_ranks_follow_itertools_order(self, N, n):
        sets = np.array(list(itertools.combinations(range(N), n)))
        assert np.array_equal(K.subset_ranker(N, n)(sets), np.arange(len(sets)))

    def test_leading_axes_are_kept(self):
        sets = np.array(list(itertools.combinations(range(8), 3)))
        ranks = K.subset_ranker(8, 3)(sets.reshape(4, 14, 3))
        assert np.array_equal(ranks, np.arange(56).reshape(4, 14))


class TestBackendPlumbing:
    def test_chunk_rows_bounds(self):
        assert K.chunk_rows(1) == 16384
        assert K.chunk_rows(500) == 8000
        assert K.chunk_rows(10_000) == 400
        assert K.chunk_rows(10_000_000) == 1
