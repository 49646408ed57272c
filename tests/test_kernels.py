import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase import _kernels as K
from corr2phase.errors import SKIP_DEGENERATE, SKIP_PLUGIN, InvalidParameter
from oracles import TRIPLES, constant_rows, delta_table, draw_pair, mpf_frac, mu

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
            (10, 6, 3, 40, 7, 0),  # N <= 2*n1: fewer far units than spare slots
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


def _replay(targets, span):
    """Each row's partial Fisher-Yates pass, swap by swap, over range(span)."""
    out = []
    for row in targets.tolist():
        pool = list(range(span))
        for j, k in enumerate(row):
            pool[j], pool[k] = pool[k], pool[j]
        out.append(pool[: len(row)])
    return out


@st.composite
def swap_targets(draw):
    """(targets, span): rows of targets t[j] in [j, span), adversarial shapes forced.

    'equal' sends every step to one target; 'identity' has t_j = j;
    'cascade' has t_j = j + 1, then a last step back onto m - 1, whose
    chain of links runs through every earlier step; 'random' covers the
    rest, with a small span so that targets repeat.
    """
    m = draw(st.integers(2, 12))
    span = m + draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["random", "equal", "identity", "cascade"]))
        if shape == "equal":
            rows.append([draw(st.integers(m - 1, span - 1))] * m)
        elif shape == "identity":
            rows.append(list(range(m)))
        elif shape == "cascade":
            rows.append(list(range(1, m)) + [m - 1])
        else:
            rows.append([draw(st.integers(j, span - 1)) for j in range(m)])
    return np.array(rows, np.int64), span


@st.composite
def small_designs(draw):
    """(N, n1, n, reps, rep_lo) with N <= 200, often n = 2 or n = n1 = N or rep_lo near 2**64."""
    N = draw(st.integers(2, 200))
    n1 = draw(st.one_of(st.just(N), st.integers(2, N)))
    n = draw(st.one_of(st.just(2), st.just(n1), st.integers(2, n1)))
    reps = draw(st.integers(0, 4))
    top = 2**64 - 1 - reps
    rep_lo = draw(st.one_of(st.integers(0, 1000), st.integers(top - 3, top)))
    return N, n1, n, reps, rep_lo


class TestLoopFreeDraw:
    @given(case=swap_targets())
    @settings(max_examples=150, deadline=None)
    def test_resolver_matches_swap_replay(self, case):
        targets, span = case
        got = targets.copy()
        K._resolve_swaps(got, np.empty_like(got))
        assert got.tolist() == _replay(targets, span)

    def test_longest_chain(self):
        # t_j = j + 1 carries unit 0 forward one position per step; step
        # m - 1 then fetches it back through a chain of m - 1 links
        m = 40
        targets = np.array([list(range(1, m)) + [m - 1]], np.int64)
        got = targets.copy()
        K._resolve_swaps(got, np.empty_like(got))
        assert got.tolist() == _replay(targets, m) == [list(range(1, m)) + [0]]

    @given(design=small_designs(), seed=st.integers(0, 2**64 - 1))
    @example(design=(7, 7, 7, 3, 0), seed=1)  # census: n = n1 = N
    @example(design=(200, 50, 2, 3, 2**64 - 4), seed=2**64 - 1)  # the last replications
    @example(design=(30, 10, 5, 0, 0), seed=5)  # no replications
    @settings(max_examples=60, deadline=None)
    def test_draw_matches_oracle(self, design, seed):
        N, n1, n, reps, rep_lo = design
        first, second = K.draw_rows(N, n1, n, reps=reps, seed=seed, rep_lo=rep_lo)
        assert first.shape == (reps, n1) and second.shape == (reps, n)
        for rows in (first, second):
            assert rows.dtype == np.int64 and rows.flags.c_contiguous
        for t in range(reps):
            assert (first[t].tolist(), second[t].tolist()) == draw_pair(N, n1, n, seed, rep_lo + t)


CORE = ("r", "u", "v", "w", "a")
WEIGHTS = ("alpha", "beta", "gamma", "delta")


def _entry(stats, i, names):
    """The named fields of draw i of a stats_rows result."""
    return tuple(getattr(stats, name)[i, 0] for name in names)


class TestStatsRows:
    def test_rows_match_scalar_statistics(self):
        frame = synth(N=60, seed=4)
        design = c2p.DesignSpec(N=60, n1=25, n=10)
        first, second = K.draw_rows(60, 25, 10, reps=50, seed=21)
        aux = c2p.KnownAux.from_frame(frame)
        stats_rows = K.stats_rows(
            frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2,
        )
        assert not np.any(stats_rows.flags)
        for i in (0, 17, 49):
            sample = c2p.TwoPhaseSample(
                design=design, first_phase=first[i], second_phase=second[i]
            )
            stats = c2p.sample_statistics(frame, sample, aux)
            expect = (stats.r, stats.u, stats.v, stats.w, stats.a)
            assert _entry(stats_rows, i, CORE) == pytest.approx(expect, rel=1e-12)
            opt = c2p.estimated_optimum_constants(stats)
            assert _entry(stats_rows, i, WEIGHTS) == pytest.approx(opt.weights(), rel=1e-9)

    def test_rows_equal_sample_statistics(self):
        # sample_statistics is the one-row case of the kernels, so the
        # draw of test_rows_match_scalar_statistics agrees bit for bit
        frame = synth(N=60, seed=4)
        design = c2p.DesignSpec(N=60, n1=25, n=10)
        first, second = K.draw_rows(60, 25, 10, reps=50, seed=21)
        aux = c2p.KnownAux.from_frame(frame)
        stats_rows = K.stats_rows(
            frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2,
        )
        assert not np.any(stats_rows.flags)
        for i in range(50):
            sample = c2p.TwoPhaseSample(
                design=design, first_phase=first[i], second_phase=second[i]
            )
            stats = c2p.sample_statistics(frame, sample, aux)
            weights = c2p.estimated_optimum_constants(stats).weights()
            expect = (stats.r, stats.u, stats.v, stats.w, stats.a) + weights
            assert _entry(stats_rows, i, CORE + WEIGHTS) == expect, i

    def test_degenerate_sample_flagged(self):
        y = np.array([5.0, 5.0, 5.0, 1.0, 2.0, 3.0])
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        z = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0])
        stats = K.stats_rows(
            y, x, z, np.array([[0, 1, 2, 3]]), np.array([[0, 1, 2]]),
            23.0 / 6.0, 37.0 / 6.0,
        )
        assert stats.flags[0, 0] == SKIP_DEGENERATE
        assert np.isnan(stats.r[0, 0])

    def test_constant_off_its_rounded_mean_flagged_degenerate(self):
        # three 0.1 values have mean 0.10000000000000002, so the sum of
        # their squared deviations is not zero
        v = np.array([0.1, 0.1, 0.1, 4.0, 5.0, 9.0])
        other = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        sets = np.array([[0, 1, 2], [0, 1, 3]])
        for x, z in ((v, other), (other, v)):
            flags = K.first_phase_rows(x, z, sets).flags
            assert flags.tolist() == [SKIP_DEGENERATE, 0]
        for y, x, z in ((v, other, other), (other, v, other), (other, other, v)):
            flags = K.second_phase_rows(y, x, z, sets).flags
            assert flags[0] == SKIP_DEGENERATE
            assert flags[1] != SKIP_DEGENERATE

    def test_two_point_second_phase_flags_singular_only(self):
        frame_y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        z = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0])
        stats = K.stats_rows(
            frame_y, x, z, np.array([[0, 1, 2, 3]]), np.array([[0, 1]]),
            23.0 / 6.0, 37.0 / 6.0,
        )
        # Plug-in constants are unusable at n=2 (the x moment table is
        # two-point degenerate) but the plain statistics stay valid.
        assert stats.flags[0, 0] == SKIP_PLUGIN
        assert np.all(np.isfinite(_entry(stats, 0, CORE)))
        assert np.isnan(stats.alpha[0, 0])

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
        stats = K.stats_rows(*cols, first, second, aux.zbar, aux.sz2)
        part_first, part_second = K.draw_rows(2000, 40, 10, reps=hi - lo, seed=seed, rep_lo=lo)
        for f, s in ((first[lo:hi], second[lo:hi]), (part_first, part_second)):
            got = K.stats_rows(*cols, f, s, aux.zbar, aux.sz2)
            for name in CORE + WEIGHTS:
                want = getattr(stats, name)[lo:hi]
                assert np.array_equal(getattr(got, name), want, equal_nan=True), name
            assert np.array_equal(got.flags, stats.flags[lo:hi])


U = 2.0**-53  # unit roundoff of float64


def _magnitudes(top):
    # 0 or at least 1e-6 in size, so that no product of four deviations
    # underflows: the error model below holds only away from underflow
    return st.one_of(st.just(0.0), st.floats(1e-6, top), st.floats(-top, -1e-6))


def _columns(n):
    """One variable of n units: a spread, ties, two points, a mean near
    zero, or a large offset with unit spread."""
    small = _magnitudes(3.0)
    half = st.lists(small, min_size=n // 2, max_size=n // 2)
    return st.one_of(
        st.lists(_magnitudes(100.0), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.1, 0.7, 3.0, -2.5]), min_size=n, max_size=n),
        st.tuples(small, small, st.lists(st.booleans(), min_size=n, max_size=n)).map(
            lambda t: [t[0] if pick else t[1] for pick in t[2]]
        ),
        st.tuples(half, st.floats(-1e-9, 1e-9)).map(
            lambda t: [v + t[1] for v in t[0] + [-v for v in t[0]] + [0.0] * (n % 2)]
        ),
        st.lists(small, min_size=n, max_size=n).map(lambda vs: [1e8 + v for v in vs]),
    )


@st.composite
def _samples(draw):
    n = draw(st.integers(2, 12))
    return [np.array(draw(_columns(n))) for _ in range(3)]


class TestMomentRowsOracle:
    """moment_rows and first_phase_rows against exact rationals.

    Error model, to first order in u and then doubled for the higher
    orders, for n units whose largest magnitude is F and exact standard
    deviation (divisor n) is sd:
    * a computed mean is off by at most n u F (summation, then division);
    * so each deviation is off by at most eta = (n + 2) u F, the extra
      2 u F from rounding the subtraction, and |deviation| <= sqrt(n) sd;
    * in units of sigma = max(sd, eta), a product over the exponents e
      of k deviations is at most P = prod (sqrt(n) + eta/sigma)^e, and
      it is off by at most P - n^(k/2) + (k - 1) u P; summing n of them
      adds (n - 1) u n P, so a sum is off by n A prod sigma^e with
      A = P - n^(k/2) + (k + n) u P;
    * a variance is off by the relative rho = A_2 (sigma/sd)^2 + u, a
      standard deviation by rho/2 + u, the scale of d_pqm by rho_D =
      sum e (rho/2 + u) + (k - 1) u, and d_pqm by
      A prod (sigma/sd)^e + |d| (rho_D + 2u).
    d_pqm is checked where rho_D < 1/2: beyond that the computed scale
    says nothing (a constant variable has none). An all-zero variable
    has sigma = 0 and is computed exactly. The bound grows with n
    and with F/sd, the offset over the spread.
    """

    @given(cols=_samples())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_exact_moments(self, cols):
        n = cols[0].shape[0]
        exact = [[Fraction(float(v)) for v in col] for col in cols]
        means, sums, d = K.moment_rows(*(col[None] for col in cols), TRIPLES)
        big = [float(np.max(np.abs(col))) for col in cols]
        eta = [(n + 2) * U * f for f in big]
        second = K.SECOND_ORDER_TRIPLES
        sd = [float(mp.sqrt(mpf_frac(mu(*exact, *t)))) for t in second]
        sigma = [max(s, e) for s, e in zip(sd, eta)]

        def growth(e):
            k = sum(e)
            p = math.prod((math.sqrt(n) + (et / sg if sg else 0.0)) ** ex
                          for et, sg, ex in zip(eta, sigma, e))
            return p - n ** (k / 2) + (k + n) * U * p

        rho = [growth(t) * (sg / s) ** 2 + U if s else math.inf
               for t, sg, s in zip(second, sigma, sd)]
        table = delta_table(*exact) if all(sd) else {}
        for i, col in enumerate(exact):
            err = abs(Fraction(float(means[i][0])) - sum(col) / n)
            assert err <= 2 * n * U * big[i], ("mean", i)
        for t in TRIPLES:
            scale = math.prod(sg**ex for sg, ex in zip(sigma, t))
            err = abs(Fraction(float(sums[t][0])) - n * mu(*exact, *t))
            assert err <= 2 * n * growth(t) * scale, ("sum", t)
            rho_d = sum(ex * (r / 2 + U) for r, ex in zip(rho, t) if ex) + (sum(t) - 1) * U
            if rho_d >= 0.5 or t not in table:
                continue
            want = table[t]
            ratio = math.prod((sg / s) ** ex for sg, s, ex in zip(sigma, sd, t) if ex)
            bound = growth(t) * ratio + float(abs(want)) * (rho_d + 2 * U)
            assert abs(mp.mpf(float(d[t][0])) - want) <= 2 * bound, ("d", t)

    @given(cols=_samples())
    @settings(max_examples=80, deadline=None)
    def test_first_phase_rows_match_exact_moments(self, cols):
        _, x, z = cols
        n = x.shape[0]
        first = K.first_phase_rows(x, z, np.arange(n)[None])
        flags = first.flags
        for col, mean, var in ((x, first.xbar[0], first.s2_x[0]), (z, first.zbar[0], first.s2_z[0])):
            exact = [Fraction(float(v)) for v in col]
            big = float(np.max(np.abs(col)))
            ex_mean = sum(exact) / n
            ex_ss = sum((v - ex_mean) ** 2 for v in exact)
            sigma = max(math.sqrt(ex_ss / n), (n + 2) * U * big)
            t = (n + 2) * U * big / sigma if sigma else 0.0
            p = (math.sqrt(n) + t) ** 2
            grow = p - n + (2 + n) * U * p
            assert abs(Fraction(float(mean)) - ex_mean) <= 2 * n * U * big
            bound = (n * grow * sigma**2 + U * float(ex_ss)) / (n - 1)
            assert abs(Fraction(float(var)) - ex_ss / (n - 1)) <= 2 * bound
        # a degenerate flag means a constant variable; the converse is not
        # checked: the mean of a constant 0.1 can round off 0.1
        if flags[0]:
            assert min(x) == max(x) or min(z) == max(z)


class TestSubsetRanker:
    @pytest.mark.parametrize("N, n", [(6, 3), (14, 6), (12, 12), (9, 1), (70, 68)])
    def test_ranks_follow_itertools_order(self, N, n):
        sets = np.array(list(itertools.combinations(range(N), n)))
        ranks = K.subset_ranker(N, n)(sets, np.arange(n)[None])[..., 0]
        assert np.array_equal(ranks, np.arange(len(sets)))

    def test_leading_axes_are_kept(self):
        sets = np.array(list(itertools.combinations(range(8), 3)))
        ranks = K.subset_ranker(8, 3)(sets.reshape(4, 14, 3), np.arange(3)[None])[..., 0]
        assert np.array_equal(ranks, np.arange(56).reshape(4, 14))

    @pytest.mark.parametrize("N, m, n", [(14, 10, 6), (9, 7, 2), (10, 10, 4), (8, 5, 5), (7, 4, 1)])
    def test_patterns_rank_the_subsets_they_pick(self, N, m, n):
        sets = np.array(list(itertools.combinations(range(N), m)))
        patterns = np.array(list(itertools.combinations(range(m), n)))
        position = {c: i for i, c in enumerate(itertools.combinations(range(N), n))}
        expected = [[position[tuple(row[p])] for p in patterns] for row in sets]
        assert np.array_equal(K.subset_ranker(N, n)(sets, patterns), expected)


ROW_KINDS = ("constant", "zeros", "ulp", "zeros-ulp", "nonfinite", "infinite", "spread")


def _any_magnitude():
    # log-uniform from 1e-320 (subnormal) to 1e308, and Hypothesis' own
    # floats, which favour the extremes
    return st.one_of(
        st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    )


@st.composite
def _row_blocks(draw):
    """Rows of one width m in 2..5000, each constant, a mix of 0.0 and
    -0.0, one ulp off either, holding an inf or NaN (a NaN sum of
    squares), all infinite, or spread, at magnitudes from 1e-320 to
    1e308; sums of constant rows near the top overflow to inf."""
    m = draw(st.integers(2, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    with np.errstate(all="ignore"):
        for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6)):
            c = draw(_any_magnitude()) * draw(st.sampled_from([1.0, -1.0]))
            row = np.full(m, c)
            if kind.startswith("zeros"):
                row = np.where(rng.random(m) < 0.5, 0.0, -0.0)
            if kind.endswith("ulp"):
                at = rng.integers(m)
                row[at] = np.nextafter(row[at], rng.choice([np.inf, -np.inf]))
            elif kind == "nonfinite":
                row[rng.integers(m)] = rng.choice([np.nan, np.inf, -np.inf])
            elif kind == "infinite":
                row[:] = np.copysign(np.inf, c)
            elif kind == "spread":
                row = c * rng.uniform(0.5, 1.0, m)
            rows.append(row)
    return np.array(rows)


class TestSingleValued:
    """The constant-row filter on the kernels' own means and sums of
    squares flags exactly the rows that the oracle's == test flags."""

    @given(rows=_row_blocks())
    @settings(max_examples=150, deadline=None)
    def test_flags_exactly_the_constant_rows(self, rows):
        want = constant_rows(rows)
        index = np.arange(rows.size).reshape(rows.shape)
        spread = np.arange(1.0, rows.size + 1.0)
        (mean, _, _), sums, _ = K.moment_rows(rows, rows, rows, ())
        got = K.single_valued(rows.reshape(-1), index, mean, sums[2, 0, 0])
        assert np.array_equal(got, want)
        # and through both phase kernels, whose other flag is a
        # nonpositive sum of squares
        first = K.first_phase_rows(rows.reshape(-1), spread, index)
        degenerate = first.flags == SKIP_DEGENERATE
        assert np.array_equal(degenerate, want | (first.s2_x <= 0.0))
        second = K.second_phase_rows(spread, rows.reshape(-1), spread, index)
        degenerate = second.flags == SKIP_DEGENERATE
        assert np.array_equal(degenerate, want | (sums[2, 0, 0] <= 0.0))


def _same(got, want):
    for name, g, w in zip(type(want)._fields, got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True), name


class TestWorkspace:
    """Kernels writing into one reused workspace return what they return
    with none, whatever sizes come before."""

    # (reps, n1, n): growing, shrinking, n = n1, one row
    SIZES = [(7, 40, 10), (30, 60, 25), (2, 12, 2), (30, 60, 60), (1, 5, 3), (45, 90, 20)]

    @pytest.mark.parametrize("levels", [None, 3], ids=["synthetic", "ties"])
    def test_reuse_matches_fresh(self, levels):
        frame = synth(N=90, seed=2)
        cols = (frame.y, frame.x, frame.z)
        if levels:  # few distinct values: constant rows and singular flags
            rng = np.random.default_rng(5)
            cols = tuple(rng.integers(1, levels + 1, 90).astype(float) for _ in cols)
        y, x, z = cols
        work = K.Workspace()
        for seed, (reps, n1, n) in enumerate(self.SIZES):
            first, second = K.draw_rows(90, n1, n, reps, seed, rep_lo=seed, work=work)
            want = K.draw_rows(90, n1, n, reps, seed, rep_lo=seed)
            for got, fresh in zip((first, second), want):
                assert got.dtype == np.int64 and got.flags.c_contiguous
                assert np.array_equal(got, fresh)
            _same(K.first_phase_rows(x, z, first, work=work), K.first_phase_rows(x, z, first))
            _same(
                K.second_phase_rows(y, x, z, second, work=work),
                K.second_phase_rows(y, x, z, second),
            )
            _same(
                K.stats_rows(*cols, first, second, 2.0, 0.5, work=work),
                K.stats_rows(*cols, first, second, 2.0, 0.5),
            )
            # the statistics kernels leave the draw in the workspace alone
            assert np.array_equal(first, want[0]) and np.array_equal(second, want[1])

    def test_one_row_calls_share_no_memory(self):
        frame = synth(N=60, seed=4)
        design = c2p.DesignSpec(N=60, n1=25, n=10)
        aux = c2p.KnownAux.from_frame(frame)
        a, b = (c2p.draw_two_phase(frame, design, seed=3, rep=rep) for rep in range(2))
        for left in (a.first_phase, a.second_phase):
            for right in (b.first_phase, b.second_phase):
                assert not np.shares_memory(left, right)
        # the statistics and the estimate are Python floats: nothing to share
        stats = [c2p.sample_statistics(frame, sample, aux) for sample in (a, b)]
        for one in stats:
            assert not any(isinstance(v, np.ndarray) for v in vars(one).values())
            assert all(type(v) is float for v in one.delta_hat.values())
            assert type(c2p.estimate(c2p.parse_estimator("td-star:linear"), one)) is float


class TestBackendPlumbing:
    def test_chunk_rows_bounds(self):
        assert K.chunk_rows(1) == 16384
        assert K.chunk_rows(500) == 8000
        assert K.chunk_rows(10_000) == 400
        assert K.chunk_rows(10_000_000) == 1
