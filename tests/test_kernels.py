import numpy as np
import pytest

import corr2phase as c2p
from corr2phase import _kernels as K
from corr2phase.errors import InvalidParameter

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


class TestBackendPlumbing:
    def test_chunk_rows_bounds(self):
        assert K.chunk_rows(1) == 16384
        assert K.chunk_rows(500) == 8000
        assert K.chunk_rows(10_000) == 400
        assert K.chunk_rows(10_000_000) == 1
