"""Hot numeric kernels: vectorized numpy over many replications at once.

Sample draws use a counter-based splitmix64 generator, so replication t
of a run is a pure function of (seed, t). The draw tracks only the
first-phase positions and the units swapped into them, so its scratch
is O(n1) per replication and its cost does not grow with N.
Floating-point statistics are exactly reproducible for the same index
arrays.

The statistics of a two-phase pair split by phase: first_phase_rows
reads only the first-phase set, second_phase_rows only the second, and
pair_rows joins them, broadcasting each first-phase row over the ranks
of the second-phase sets it is paired with. stats_rows pairs row t with
row t; exact enumeration computes each distinct set once and pairs a
block of first-phase sets with their subsets by rank (subset_ranker).

moment_rows is the one place that computes means, sums of products and
standardized moments d_pqm, over (rows x units) arrays: the gathered
second-phase rows here, the one row of a sample in sampling, and the
one row of a whole population in moments. Census samples therefore
reproduce the population table bit for bit.

The variance slopes (scaled_slopes, times r so that they stay finite
at r = 0) and the solve of each axis's 2x2 system for the optimum
weights (optimum_weights) live here too, in plain arithmetic, so that
the per-sample kernel and the scalar paths in analytics run the same
code. analytics evaluates the class variance at those weights for the
minimized variance.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import mul
from typing import Callable

import numpy as np

from .errors import InvalidParameter

# Kernel facts recorded by the benchmark (perfbench/worker.py). There is
# a single numpy implementation, so these are constants.
HAVE_NUMBA = False
ENV_VAR = "CORR2PHASE_BACKEND"


def resolve_backend(backend: None = None) -> str:
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"


# Output row layout of stats_rows.
COL_R, COL_U, COL_V, COL_W, COL_A = 0, 1, 2, 3, 4
COL_ALPHA, COL_BETA, COL_GAMMA, COL_DELTA = 5, 6, 7, 8
NCOLS = 9

# Width of a second_phase_rows row.
SECOND_COLS = 7

# Scratch of one replication through draw_rows and stats_rows, in 8-byte
# elements per first-phase unit: a bound that holds for any n <= n1.
SCRATCH_PER_N1 = 32

FLAG_DEGENERATE = 1  # a required sample variable is constant
FLAG_NONFINITE = 2  # a core statistic (r, u, v, w, a) is not finite
FLAG_SINGULAR = 4  # plug-in optimum constants could not be formed

# Relative tolerance for declaring an optimum-constant denominator
# singular, and absolute tolerance below which a correlation is treated
# as zero. The scalar path in analytics uses the same values.
SINGULAR_RTOL = 1e-9
ZERO_R_TOL = 1e-9

# Standardized moments d_pqm that the optimum weights read.
WEIGHT_TRIPLES = (
    (2, 1, 0),
    (0, 3, 0),
    (1, 2, 0),
    (2, 2, 0),
    (0, 4, 0),
    (1, 3, 0),
    (2, 0, 1),
    (0, 2, 1),
    (1, 1, 1),
    (2, 0, 2),
    (0, 2, 2),
    (1, 1, 2),
    (0, 0, 3),
    (0, 0, 4),
)

# Second-order triples, whose sums moment_rows always returns.
SECOND_ORDER_TRIPLES = ((2, 0, 0), (0, 2, 0), (0, 0, 2))

# Triples moment_rows computes for one second-phase sample: the y-x
# covariance (for r) and the weight moments.
SAMPLE_TRIPLES = ((1, 1, 0),) + WEIGHT_TRIPLES

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_MASK64 = (1 << 64) - 1


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def spread(kurt, skew):
    """Excess spread kurt - skew^2 - 1 of one axis, and whether it is singular.

    The spread is the determinant scale of that axis's 2x2 weight
    system; it is positive for every nondegenerate distribution and zero
    exactly for a two-point one. Takes floats or arrays.
    """
    span = kurt - skew * skew - 1.0
    return span, span <= SINGULAR_RTOL * (abs(kurt) + skew * skew + 1.0)


def scaled_slopes(d, c_x, c_z, r):
    """The four variance slopes times r, so finite at r = 0.

    A slope is the coefficient of a design-variance term linear in one
    weight. d(p, q, m) returns d_pqm; c_x, c_z are the coefficients of
    variation and r the correlation, all exact population values or all
    one sample's estimates, as floats or arrays (one entry per sample).
    Ordered (mean_x, var_x, mean_z, var_z).
    """
    return (
        (2.0 * d(1, 2, 0) - r * (d(2, 1, 0) + d(0, 3, 0))) * c_x,
        2.0 * d(1, 3, 0) - r * (d(2, 2, 0) + d(0, 4, 0)),
        (2.0 * d(1, 1, 1) - r * (d(2, 0, 1) + d(0, 2, 1))) * c_z,
        2.0 * d(1, 1, 2) - r * (d(2, 0, 2) + d(0, 2, 2)),
    )


def _axis_weights(slope_mean, slope_var, c, skew, kurt, span):
    """Minimizer of one axis's quadratic: its 2x2 system solved in closed form."""
    return (
        (slope_var * c * skew - slope_mean * (kurt - 1.0)) / (2.0 * c * c * span),
        (slope_mean * skew - slope_var * c) / (2.0 * c * span),
    )


def optimum_weights(d, c_x, c_z, slopes, span_x, span_z):
    """The optimum adjustment weights times r, from scaled_slopes.

    d, c_x and c_z are as in scaled_slopes, slopes is its result, and
    span_x and span_z come from spread(); dividing by r gives the
    weights, ordered as the slopes. Guarding r, c_x, c_z and the spans
    against zero is the caller's job.
    """
    s1, s2, s3, s4 = slopes
    x = _axis_weights(s1, s2, c_x, d(0, 3, 0), d(0, 4, 0), span_x)
    return x + _axis_weights(s3, s4, c_z, d(0, 0, 3), d(0, 0, 4), span_z)


def _sorted_rows(pool: np.ndarray) -> np.ndarray:
    """The columns of pool as sorted rows of a C-ordered array.

    C order makes numpy sum every row of a gather such as x[first] in
    the same (pairwise) order, whatever the number of rows, so a
    replication's statistics do not depend on the chunk it falls in.
    """
    rows = pool.T.copy()
    rows.sort(axis=1)
    return rows


def draw_rows(
    N: int,
    n1: int,
    n: int,
    reps: int,
    seed: int,
    rep_lo: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `reps` two-phase index samples, replications rep_lo onward.

    Returns (first, second): sorted, C-ordered int64 index arrays of
    shape (reps, n1) and (reps, n), second[t] a subset of first[t].
    Replication t depends only on (seed, rep_lo + t), never on reps or
    chunking, which is what makes parallel simulation order-free. The
    seed must lie in [0, 2**64) and the last replication index,
    rep_lo + reps - 1, below 2**64 - 1.

    Each replication is a partial Fisher-Yates shuffle: n1 swaps over
    the population, then n swaps over the first phase. Swap j pairs
    position j with k_j = j + mix64(stream + GOLDEN*(j+1)) mod (span - j),
    where the span is N in phase one and n1 in phase two. The targets
    never depend on the pool's contents, so all of them come from one
    vectorized call. Positions below n1 keep their index, and the at
    most n1 distinct targets beyond are relabelled onto slots
    n1..2*n1-1, so the pool has 2*n1 slots: scratch is O(n1) per
    replication whatever N is.
    """
    if not (2 <= n <= n1 <= N):
        raise InvalidParameter("need 2 <= n <= n1 <= N")
    if N * n1 >= 1 << 62:
        raise InvalidParameter(f"N * n1 must stay below 2**62, got N={N}, n1={n1}")
    reps, rep_lo = int(reps), int(rep_lo)
    if reps < 0 or rep_lo < 0:
        raise InvalidParameter("reps and rep_lo must be nonnegative")
    if rep_lo + reps > _MASK64:
        raise InvalidParameter(
            f"replications must lie in [0, 2**64 - 1), got rep_lo={rep_lo}, reps={reps}"
        )
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidParameter(f"seed must lie in [0, 2**64), got {seed}")
    ticks = np.arange(1, reps + 1, dtype=np.uint64) + np.uint64(rep_lo)
    stream = mix64(np.uint64(seed) + _GOLDEN * ticks)

    # swap targets, one row per step (n1 first-phase, then n second-phase)
    # and one column per replication; uint64 arrays wrap silently, as the
    # counter scheme wants
    step = np.arange(1, n1 + n + 1, dtype=np.uint64)
    span = np.concatenate((N - np.arange(n1), n1 - np.arange(n))).astype(np.uint64)
    k = mix64(stream + _GOLDEN * step[:, None])
    k %= span[:, None]
    k = k.view(np.int64)
    k += np.concatenate((np.arange(n1), np.arange(n)))[:, None]

    # pool[slot, t] is the unit at that slot of replication t: rank each
    # replication's distinct far targets with one sort of packed (target,
    # step) keys, then point their steps at n1 + rank
    cols = np.arange(reps)
    shift = (n1 - 1).bit_length()
    keys = (k[:n1] << shift | np.arange(n1)[:, None]).T.copy()
    keys.sort(axis=1)
    target = keys >> shift
    far = target >= n1
    fresh = far.copy()
    fresh[:, 1:] &= target[:, 1:] != target[:, :-1]
    slot = np.where(far, n1 - 1 + np.cumsum(fresh, axis=1), target)
    k[keys & ((1 << shift) - 1), cols[:, None]] = slot
    pool = np.empty((2 * n1, reps), np.int64)
    pool[:n1] = np.arange(n1)[:, None]
    pool[slot, cols[:, None]] = target

    # swap on the flat pool: slot s of replication t sits at s*reps + t
    flat = pool.reshape(-1)
    k *= reps
    k += cols
    for j in range(n1):
        at = k[j]
        held = pool[j].copy()
        pool[j] = flat[at]
        flat[at] = held
    first = _sorted_rows(pool[:n1])
    for j in range(n):
        at = k[n1 + j]
        held = pool[j].copy()
        pool[j] = flat[at]
        flat[at] = held
    return first, _sorted_rows(pool[:n])


def _powers(f, f2):
    """Factors of f**p for p = 0..4, built from f and its square f2."""
    return ([], [f], [f2], [f2, f], [f2, f2])


def moment_rows(y, x, z, triples):
    """Means, sums of products and d_pqm over rows of units.

    y, x and z are (rows, units) float64 arrays. Returns (means, sums,
    d): the row means of y, x and z; the row sums of dy^p dx^q dz^m of
    the deviations, for SECOND_ORDER_TRIPLES and each requested (p, q,
    m); and d_pqm = (sum / units) / (sd_y^p sd_x^q sd_z^m) for each
    requested triple, sd on the divisor-units convention. Products and
    scales are built in _powers order, the products in one reused
    buffer, so a row rounds the same alone as among many. Non-finite
    values are left for the caller to flag or name.
    """
    units = y.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        means = tuple(f.mean(axis=1) for f in (y, x, z))
        dev = [f - mean[:, None] for f, mean in zip((y, x, z), means)]
        squares = [f * f for f in dev]
        factors = [_powers(f, f2) for f, f2 in zip(dev, squares)]
        sums = dict(zip(SECOND_ORDER_TRIPLES, (f2.sum(axis=1) for f2 in squares)))
        scale = [_powers(np.sqrt(v), v) for v in (s / units for s in sums.values())]
        buf = np.empty_like(dev[0])
        d = {}
        for p, q, m in triples:
            terms = factors[0][p] + factors[1][q] + factors[2][m]
            prod = reduce(lambda a, b: np.multiply(a, b, out=buf), terms)
            sums[p, q, m] = prod.sum(axis=1)
            den = reduce(mul, scale[0][p] + scale[1][q] + scale[2][m])
            d[p, q, m] = (sums[p, q, m] / units) / den
    return means, sums, d


def constant_rows(*columns):
    """Rows over which any of the (rows, units) arrays takes one value.

    PopulationFrame's min == max test. A zero sum of squared deviations
    misses some: three 0.1 values have mean 0.10000000000000002.
    """
    return reduce(np.logical_or, ((c == c[:, :1]).all(axis=1) for c in columns))


def first_phase_rows(
    x: np.ndarray,
    z: np.ndarray,
    first: np.ndarray,
    aux_zbar: float,
    aux_sz2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """First-phase statistics of a batch of index rows.

    Returns (rows, flags). rows[t] holds [mean_x1, s2_x1, w, a] for
    first-phase set t, where w and a compare the first-phase mean and
    variance of z with the known ones; flags[t] is FLAG_DEGENERATE when
    x or z is constant over the set, else 0.
    """
    x, z = (np.asarray(arr, dtype=np.float64) for arr in (x, z))
    n1 = first.shape[1]
    x1 = x[first]
    z1 = z[first]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xbar1 = x1.mean(axis=1)
        zbar1 = z1.mean(axis=1)
        vx1 = ((x1 - xbar1[:, None]) ** 2).sum(axis=1)
        vz1 = ((z1 - zbar1[:, None]) ** 2).sum(axis=1)
        sx2_1 = vx1 / (n1 - 1.0)
        sz2_1 = vz1 / (n1 - 1.0)
        rows = np.column_stack((xbar1, sx2_1, zbar1 / aux_zbar, sz2_1 / aux_sz2))
    flags = np.zeros(first.shape[0], np.uint8)
    flags[constant_rows(x1, z1) | (vx1 <= 0.0) | (vz1 <= 0.0)] = FLAG_DEGENERATE
    return rows, flags


def second_phase_rows(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    second: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Second-phase statistics of a batch of index rows.

    Returns (rows, flags). rows[t] holds [r, mean_x, s2_x, alpha, beta,
    gamma, delta] for second-phase set t: the sample correlation, the
    mean and variance of x, and the plug-in optimum weights. flags[t] is
    FLAG_DEGENERATE when y, x or z is constant over the set, else
    FLAG_SINGULAR when the plug-in weights cannot be formed, else 0.
    """
    y, x, z = (np.asarray(arr, dtype=np.float64) for arr in (y, x, z))
    n = second.shape[1]
    columns = (y[second], x[second], z[second])
    (_, xbar, zbar), sums, std = moment_rows(*columns, SAMPLE_TRIPLES)
    m200, m020, m002 = (sums[t] for t in SECOND_ORDER_TRIPLES)

    def d(p, q, m):
        return std[p, q, m]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sy2 = m200 / (n - 1.0)
        sx2 = m020 / (n - 1.0)
        sz2 = m002 / (n - 1.0)
        r = (sums[1, 1, 0] / (n - 1.0)) / np.sqrt(sy2 * sx2)
        span_x, singular_x = spread(std[0, 4, 0], std[0, 3, 0])
        span_z, singular_z = spread(std[0, 0, 4], std[0, 0, 3])
        c_x, c_z = np.sqrt(sx2) / xbar, np.sqrt(sz2) / zbar
        slopes = scaled_slopes(d, c_x, c_z, r)
        weights = optimum_weights(d, c_x, c_z, slopes, span_x, span_z)
        rows = np.column_stack((r, xbar, sx2) + tuple(e / r for e in weights))
        singular = (
            (xbar == 0.0)
            | (zbar == 0.0)
            | (np.abs(r) < ZERO_R_TOL)
            | singular_x
            | singular_z
            | ~np.isfinite(rows[:, 3:]).all(axis=1)
        )
    flags = np.zeros(second.shape[0], np.uint8)
    flags[singular] = FLAG_SINGULAR
    degenerate = constant_rows(*columns) | (m200 <= 0.0) | (m020 <= 0.0) | (m002 <= 0.0)
    flags[degenerate] = FLAG_DEGENERATE
    return rows, flags


def pair_rows(first_stats, second_stats, i2) -> tuple[np.ndarray, np.ndarray]:
    """Statistics rows of the two-phase pairs that i2 spells out.

    first_stats and second_stats are the (rows, flags) results of
    first_phase_rows and second_phase_rows. i2 is a (b, k) array of
    second-phase row indices: row t * k + j pairs first-phase row t with
    second-phase row i2[t, j]. The first-phase columns are broadcast
    over each row's k indices, not gathered per pair. Returns (rows,
    flags) in the stats_rows layout; rows is the F-ordered view of a
    (NCOLS, b * k) array, so each column is contiguous.
    """
    first, first_flags = first_stats
    second, second_flags = second_stats
    b, k = i2.shape
    out = np.empty((NCOLS, b, k))
    # the second_phase_rows columns, in order; mode="clip" lets take
    # write to out unbuffered, and the indices are in range anyway
    for col, src in zip((COL_R, COL_U, COL_V, COL_ALPHA, COL_BETA, COL_GAMMA, COL_DELTA),
                        range(SECOND_COLS)):
        np.take(second[:, src], i2, out=out[col], mode="clip")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[COL_U] /= first[:, 0, None]
        out[COL_V] /= first[:, 1, None]
    out[COL_W] = first[:, 2, None]
    out[COL_A] = first[:, 3, None]
    pair_flags = second_flags.take(i2)
    degenerate = ((first_flags[:, None] | pair_flags) & FLAG_DEGENERATE) != 0
    finite = reduce(np.logical_and, (np.isfinite(out[c]) for c in (COL_R, COL_U, COL_V)))
    finite &= np.isfinite(first[:, 2:]).all(axis=1)[:, None]  # w and a
    nonfinite = ~finite & ~degenerate
    singular = (pair_flags == FLAG_SINGULAR) & ~(degenerate | nonfinite)

    flags = np.zeros(b * k, np.uint8)
    flags[degenerate.reshape(-1)] = FLAG_DEGENERATE
    flags[nonfinite.reshape(-1)] = FLAG_NONFINITE
    flags[singular.reshape(-1)] = FLAG_SINGULAR
    out = out.reshape(NCOLS, b * k)
    out[:, np.flatnonzero(flags & (FLAG_DEGENERATE | FLAG_NONFINITE))] = np.nan
    out[COL_ALPHA:, np.flatnonzero(flags == FLAG_SINGULAR)] = np.nan
    return out.T, flags


def stats_rows(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    aux_zbar: float,
    aux_sz2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample statistics rows for a batch of index draws.

    Returns (rows, flags). rows[t] holds [r, u, v, w, a, alpha, beta,
    gamma, delta] for draw t, NaN where undefined; flags[t] is 0 or one
    of FLAG_DEGENERATE, FLAG_NONFINITE, FLAG_SINGULAR. Rows flagged
    SINGULAR still carry valid r, u, v, w, a. Draw t pairs first[t] with
    second[t]: the two phase passes, then pair_rows row by row.
    """
    return pair_rows(
        first_phase_rows(x, z, first, aux_zbar, aux_sz2),
        second_phase_rows(y, x, z, second),
        np.arange(first.shape[0])[:, None],
    )


def subset_ranker(N: int, n: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Rank function of sorted n-subsets of range(N), picked by patterns.

    The rank of c_0 < ... < c_{n-1} is its position in
    itertools.combinations(range(N), n), C(N, n) - 1 - sum_i
    C(N-1-c_i, n-i); since c_i - i lies in [0, N-n], the table holds
    only those terms, each at most C(N-1, n), so int64 suffices whenever
    C(N, n) does.

    The returned rank(sets, patterns) takes ascending index rows (any
    leading shape, last axis m >= n) and (k, n) ascending position rows,
    such as those of itertools.combinations(range(m), n), and returns
    the ranks of sets[..., patterns] with shape (..., k) without
    gathering those subsets: place i of a pattern can only hold one of
    the m - n + 1 positions i, ..., i + m - n, so the table terms of
    those positions are looked up once and then gathered per pattern.
    The identity pattern np.arange(n)[None] ranks the rows themselves.
    """
    table = np.array(
        [[math.comb(N - 1 - i - e, n - i) for e in range(N - n + 1)] for i in range(n)],
        dtype=np.int64,
    )
    top = math.comb(N, n) - 1

    def rank(sets: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        span = sets.shape[-1] - n + 1
        out = np.full(sets.shape[:-1] + patterns.shape[:1], top, np.int64)
        for i in range(n):
            out -= table[i].take(sets[..., i : i + span] - i)[..., patterns[:, i] - i]
        return out

    return rank


def chunk_rows(width: int, cap: int = 16384) -> int:
    """Replications per kernel call, sized to bound scratch memory.

    width is the scratch one replication needs, in 8-byte elements; a
    call then holds about 4e6 of them (32 MB), and at most cap rows.
    simulate passes SCRATCH_PER_N1 * n1, the draw and the stats kernel
    together; enumerate_exact passes SCRATCH_PER_N1 * n for its
    second-phase sets and N for its blocks of pairs, each block holding
    whole first-phase sets with all their second-phase subsets, so its
    memory is O(block) whatever the number of pairs.
    """
    return max(1, min(cap, 4_000_000 // max(width, 1)))
