"""Hot numeric kernels: vectorized numpy over many replications at once.

Sample draws use a counter-based splitmix64 generator, so replication t
of a run is a pure function of (seed, t). The draw never replays its
swaps: each phase computes all its swap targets at once and reads its
result off one sort of packed (target, step) keys, following the rare
chains of repeated targets sparsely. Its scratch is O(n1) per
replication and its cost does not grow with N.
Floating-point statistics are exactly reproducible for the same index
arrays.

The statistics of a two-phase pair split by phase, each phase's as
named columns: first_phase_rows reads only the first-phase set
(FirstPhase: the raw means and variances of x and z), second_phase_rows
only the second (SecondPhase: r, the mean and variance of x, the
plug-in weights). pair_rows joins them into PairStats and is the one
place that forms the four ratios u, v, w and a: the second-phase
columns are taken by the ranks of the b x k paired sets, the
first-phase columns stay (b, 1) and broadcast over them. stats_rows is
the k = 1 case, pairing row t with row t; exact enumeration computes
each distinct set once and pairs a block of first-phase sets with
their subsets by rank (subset_ranker); sampling.sample_statistics is
the one-row case.

moment_rows computes means, sums of products and standardized moments
d_pqm over (rows x units) arrays: the gathered second-phase rows here,
the one row of a sample in sampling, and the one row of a whole
population in moments. Census samples therefore reproduce the
population table bit for bit. first_phase_rows needs only two means and
two sums of squares, and computes them itself in the same operations.
A constant variable is found from those means and sums of squares
(single_valued): only the few rows they cannot rule out are gathered
again for an exact == test.

The draw and the phase kernels write their units-wide arrays into an
optional keyword-only Workspace, whose slots stages with disjoint
lifetimes share. simulate makes one per thread for one call, so its
chunk loop allocates no such array after the first chunk; every other
caller passes none, and each call then makes its own.

The variance slopes (scaled_slopes, times r so that they stay finite
at r = 0) and the solve of each axis's 2x2 system for the optimum
weights (optimum_weights) live here too, in plain arithmetic, so that
the per-sample kernel and the scalar paths in analytics run the same
code. analytics evaluates the class variance at those weights for the
minimized variance.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameter

# Kernel facts recorded by the benchmark (perfbench/worker.py). There is
# a single numpy implementation, so these are constants.
HAVE_NUMBA = False
ENV_VAR = "CORR2PHASE_BACKEND"


def resolve_backend(backend: None = None) -> str:
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"


# Scratch of one replication through draw_rows and stats_rows, in 8-byte
# elements per first-phase unit: a bound that holds for any n <= n1.
# simulate's workspace (Workspace) holds, per replication, the draw's
# n1 + n results, its scratch slot of max(n1, 4 n) elements (sort keys,
# then the first phase's gather, then moment_rows' squares and product)
# and the three n-wide second-phase gathers, the first of which held
# the draw's phase-two positions: at most 9 n1. The rest covers what a
# chunk still allocates (the draw's repeat mask, pair_rows' columns),
# and chunk_rows sizes chunks from this value.
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


class Workspace:
    """Arrays that the kernel calls of one thread reuse from call to call.

    A kernel given work= writes its units-wide arrays into the
    workspace's named slots instead of allocating them, so a loop of
    chunks allocates none after its first chunk and the heap does not
    churn. Each slot is one flat 8-byte buffer that grows to the largest
    request and is viewed at the shape asked for, so a workspace serves
    any sequence of (reps, n1, n). Stages whose arrays are never live at
    once share a slot:

    - "first" and "second": the draw's results;
    - "scratch": the draw's sort keys, then first_phase_rows' one gather
      and deviation buffer (for x, then for z), then moment_rows' three
      squares and its product buffer;
    - "y": the draw's phase-two positions, then second_phase_rows'
      gather of y, which moment_rows turns into deviations in place;
    - "x" and "z": its gathers of x and z, likewise.

    A workspace lives for one call on one thread (simulate makes one per
    thread it runs): an array a kernel returns from it, such as the
    draw's, is overwritten by the next kernel call that uses it. A
    kernel given no workspace makes its own, so its results are new
    arrays.
    """

    def __init__(self) -> None:
        self._slots: dict[str, np.ndarray] = {}

    def array(self, slot: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-ordered array of the given shape and 8-byte dtype in slot's buffer."""
        size = math.prod(shape)
        buf = self._slots.get(slot)
        if buf is None or buf.size < size:
            buf = self._slots[slot] = np.empty(size, np.float64)
        return buf[:size].view(dtype).reshape(shape)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_MASK64 = (1 << 64) - 1


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer of the uint64 array z, in place; tmp is scratch of z's shape."""
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array."""
    z = np.array(z, dtype=np.uint64)
    _mix64_into(z, np.empty_like(z))
    return z


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


def _swap_targets(stream, first_step, span, out, tmp) -> None:
    """Swap targets of m consecutive steps of each replication, into out.

    out and tmp are (reps, m) int64 arrays, tmp scratch. Step j of
    replication t targets j + mix64(stream[t] + GOLDEN*(first_step + j))
    mod (span - j); uint64 arithmetic wraps silently, as the counter
    scheme wants.
    """
    m = out.shape[1]
    z = out.view(np.uint64)
    np.add(stream[:, None], _GOLDEN * np.arange(first_step, first_step + m, dtype=np.uint64), out=z)
    _mix64_into(z, tmp.view(np.uint64))
    z %= np.arange(span, span - m, -1).astype(np.uint64)
    out += np.arange(m)


def _repeats(keys: np.ndarray, low: int) -> np.ndarray:
    """Flat indices of the sorted keys whose target is that of the key before, in its row.

    Keys pack (target << shift) | step, so two keys share a target when
    their xor is at most low = 2**shift - 1. The xor runs block by block
    through one small buffer.
    """
    flat = keys.reshape(-1)
    block = 1 << 14
    same = np.zeros(flat.size, bool)
    buf = np.empty(min(block, flat.size), np.int64)
    for lo in range(1, flat.size, block):
        hi = min(lo + block, flat.size)
        xor = buf[: hi - lo]
        np.bitwise_xor(flat[lo:hi], flat[lo - 1 : hi - 1], out=xor)
        np.less_equal(xor, low, out=same[lo:hi])
    same[:: keys.shape[1]] = False  # a row's first key has no key before it
    return np.flatnonzero(same)


def _resolve_swaps(t: np.ndarray, keys: np.ndarray) -> None:
    """Turn the targets of a partial Fisher-Yates pass into its result, in place.

    t is (reps, m) with t[:, j] >= j the target of step j, which swaps
    positions j and t[:, j] of a pool that starts as the identity; on
    return t[:, j] is the entry that ends at position j. keys is (reps,
    m) scratch.

    Position j ends up holding what sat at t_j just before step j: t_j
    itself, unless an earlier step i also targeted t_j. Then it is what
    the latest such step i moved there, which is what sat at position i
    just before step i: i itself, unless an earlier step h targeted i,
    and so on down the chain. One sort of packed (target, step) keys per
    replication puts each step right after the earlier steps that share
    its target, and puts the targets below m, the only ones a chain can
    pass through, at the front of each row; the rare chains are then
    followed by searchsorted over those few linked positions until
    nothing moves.
    """
    reps, m = t.shape
    shift = (m - 1).bit_length()
    low = (1 << shift) - 1
    np.left_shift(t, shift, out=keys)
    keys |= np.arange(m)
    keys.sort(axis=1)
    flat = keys.reshape(-1)

    # links: the steps h that targeted a position i < m, as the sorted
    # codes row * m + i and their steps h; a code's last entry holds its
    # latest step. Targets below m lead each sorted row, so only the
    # first `width` columns hold any. A chain only visits positions i
    # with t_i > i, so none of their links is step i itself.
    lim = m << shift
    width = bisect.bisect_left(range(m), True, key=lambda c: not (keys[:, c] < lim).any())
    rows, cols = np.nonzero(keys[:, :width] < lim)
    linked = keys[rows, cols]
    codes = rows * m + (linked >> shift)
    links = linked & low

    # steps whose target an earlier step shared start from that step,
    # then follow links until none applies
    at = _repeats(keys, low)
    rows = at // m
    source = flat[at - 1] & low
    moving = np.arange(at.size)
    while moving.size and codes.size:
        code = rows[moving] * m + source[moving]
        hit = np.searchsorted(codes, code, side="right") - 1
        found = codes[hit] == code
        moving = moving[found]
        source[moving] = links[hit[found]]
    t.reshape(-1)[rows * m + (flat[at] & low)] = source


def draw_rows(
    N: int,
    n1: int,
    n: int,
    reps: int,
    seed: int,
    rep_lo: int = 0,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `reps` two-phase index samples, replications rep_lo onward.

    Returns (first, second): sorted, C-ordered int64 index arrays of
    shape (reps, n1) and (reps, n), second[t] a subset of first[t],
    held in the slots "first" and "second" of work.
    Replication t depends only on (seed, rep_lo + t), never on reps or
    chunking, which is what makes parallel simulation order-free. The
    seed must lie in [0, 2**64) and the last replication index,
    rep_lo + reps - 1, below 2**64 - 1.

    Each replication is a partial Fisher-Yates shuffle: n1 swaps over
    the population, then n swaps over the first phase. Swap j pairs
    position j with t_j = j + mix64(stream + GOLDEN*(j+1)) mod (span - j),
    where the span is N in phase one and n1 in phase two. The targets
    never depend on the pool's contents, so all of a phase's come from
    one vectorized call, and the swaps are never replayed:
    _resolve_swaps reads each phase's result off one sort of its
    targets. Phase two resolves to positions of the first phase, which
    are gathered from phase one's result. A call holds the (reps, n1)
    targets, which become first, one key buffer of that size (slot
    "scratch") and the (reps, n) positions of phase two (slot "y"), so
    its scratch is O(n1) per replication whatever N is.

    Rows are sorted in place in C order. C order makes numpy sum every
    row of a gather such as x[first] in the same (pairwise) order,
    whatever the number of rows, so a replication's statistics do not
    depend on the chunk it falls in.
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
    work = Workspace() if work is None else work
    ticks = np.arange(1, reps + 1, dtype=np.uint64) + np.uint64(rep_lo)
    stream = mix64(np.uint64(seed) + _GOLDEN * ticks)

    first = work.array("first", (reps, n1), np.int64)
    keys = work.array("scratch", (reps, n1), np.int64)
    _swap_targets(stream, 1, N, first, keys)
    _resolve_swaps(first, keys)
    # phase two shuffles positions of phase one's unsorted result: resolve
    # it to those positions, reusing the key buffer, then gather
    at = work.array("y", (reps, n), np.int64)
    keys = keys.reshape(-1)[: reps * n].reshape(reps, n)
    _swap_targets(stream, n1 + 1, n1, at, keys)
    _resolve_swaps(at, keys)
    at += np.arange(0, reps * n1, n1)[:, None]
    second = _gather(first.reshape(-1), at, work.array("second", (reps, n), np.int64))
    first.sort(axis=1)
    second.sort(axis=1)
    return first, second


def _powers(f, f2):
    """Factors of f**p for p = 0..4, built from f and its square f2."""
    return ([], [f], [f2], [f2, f], [f2, f2])


def _gather(column: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """column[index] written into out, for index entries in [0, len(column)).

    Every caller's indices are in range: drawn, enumerated or checked by
    TwoPhaseSample. np.take's default mode copies out to a temporary
    first, so that a bad index can raise before out changes; "clip"
    writes out directly.
    """
    return np.take(column, index, out=out, mode="clip")


def moment_rows(y, x, z, triples, *, work: Workspace | None = None):
    """Means, sums of products and d_pqm over rows of units.

    y, x and z are (rows, units) float64 arrays. Returns (means, sums,
    d): the row means of y, x and z; the row sums of dy^p dx^q dz^m of
    the deviations, for SECOND_ORDER_TRIPLES and each requested (p, q,
    m); and d_pqm = (sum / units) / (sd_y^p sd_x^q sd_z^m) for each
    requested triple, sd on the divisor-units convention. Products and
    scales are built in _powers order, the products in one reused
    buffer, so a row rounds the same alone as among many. Non-finite
    values are left for the caller to flag or name.

    The deviations go to work's slots "y", "x" and "z", so inputs that
    are those slots' arrays, as second_phase_rows gathers them, are
    overwritten by their deviations; the squares and the product buffer
    go to its slot "scratch".
    """
    work = Workspace() if work is None else work
    units = y.shape[1]
    *squares, buf = work.array("scratch", (4,) + y.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        means = tuple(f.mean(axis=1) for f in (y, x, z))
        dev = [
            np.subtract(f, mean[:, None], out=work.array(slot, f.shape))
            for f, mean, slot in zip((y, x, z), means, "yxz")
        ]
        for f, f2 in zip(dev, squares):
            np.multiply(f, f, out=f2)
        factors = [_powers(f, f2) for f, f2 in zip(dev, squares)]
        sums = dict(zip(SECOND_ORDER_TRIPLES, (f2.sum(axis=1) for f2 in squares)))
        scale = [_powers(np.sqrt(v), v) for v in (s / units for s in sums.values())]
        d = {}
        for p, q, m in triples:
            terms = factors[0][p] + factors[1][q] + factors[2][m]
            prod = reduce(lambda a, b: np.multiply(a, b, out=buf), terms)
            sums[p, q, m] = prod.sum(axis=1)
            den = reduce(mul, scale[0][p] + scale[1][q] + scale[2][m])
            d[p, q, m] = (sums[p, q, m] / units) / den
    return means, sums, d


def single_valued(column, index, mean, ss):
    """Rows of column[index] whose units all take one value, by ==.

    PopulationFrame's min == max test, so 0.0 and -0.0 are one value and
    a row holding NaN is not single-valued. mean and ss are the rows'
    means and sums of squared deviations as the kernels compute them (a
    row mean, the deviations from it, their squares, their row sum), and
    they rule out nearly every row without a pass of its own: only rows
    with not (ss > TOL * mean**2) are gathered again for the == test.

    TOL = 8 m**3 u**2 for rows of m units, u = 2**-53, misses no
    single-valued row. If all m values equal c, any order of summing
    them errs by at most gamma(m - 1) m |c|, gamma(k) = k u / (1 - k u)
    (Higham 2002, sec. 4.2), so the mean is within gamma(m) |c| of c, up
    to half an underflow step h = 2**-1075; the m deviations are then
    one value d with |d| <= (1 + u) (gamma(m) |c| + h), and ss <= 2 m
    (1 + u)**3 (1 + gamma(m)) gamma(m)**2 c**2, the 2 covering a square
    rounded up from below the smallest subnormal (ss is 0 otherwise, and
    0 > x is false). Against mean**2 >= ((1 - gamma(m)) |c| - h)**2 and
    the roundings of TOL * mean**2, that leaves a factor of more than
    1.5 to spare while m u <= 0.1. Where ss overflows, so does mean**2,
    which it stays far below, and inf > inf is false; so is a test on
    NaN. A row whose values spread passes the filter only when its
    coefficient of variation is below about 3 m u.
    """
    units = index.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        maybe = np.flatnonzero(~(ss > units**3 * 2.0**-103 * (mean * mean)))
    rows = column[index[maybe]]
    single = np.zeros(index.shape[0], bool)
    single[maybe] = (rows == rows[:, :1]).all(axis=1)
    return single


class FirstPhase(NamedTuple):
    """First-phase moments of a batch of index rows, one entry per set.

    The means and variances (divisor n1 - 1) of x and z. flags is
    FLAG_DEGENERATE where x or z is constant over the set or has no
    positive variance, else 0.
    """

    xbar: np.ndarray
    s2_x: np.ndarray
    zbar: np.ndarray
    s2_z: np.ndarray
    flags: np.ndarray


def first_phase_rows(
    x: np.ndarray, z: np.ndarray, first: np.ndarray, *, work: Workspace | None = None
) -> FirstPhase:
    """First-phase moments of a batch of index rows (FirstPhase).

    x, then z, is gathered into work's slot "scratch" and turned in
    place into its deviations and their squares.
    """
    work = Workspace() if work is None else work
    n1 = first.shape[1]
    buf = work.array("scratch", first.shape)
    moments = []
    for column in (np.asarray(x, dtype=np.float64), np.asarray(z, dtype=np.float64)):
        _gather(column, first, buf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mean = buf.mean(axis=1)
            buf -= mean[:, None]
            buf *= buf
            ss = buf.sum(axis=1)
            moments.append((mean, ss / (n1 - 1.0), single_valued(column, first, mean, ss)))
    (xbar, s2_x, single_x), (zbar, s2_z, single_z) = moments
    flags = np.zeros(first.shape[0], np.uint8)
    flags[single_x | single_z | (s2_x <= 0.0) | (s2_z <= 0.0)] = FLAG_DEGENERATE
    return FirstPhase(xbar, s2_x, zbar, s2_z, flags)


class SecondPhase(NamedTuple):
    """Second-phase statistics of a batch of index rows, one entry per set.

    The sample correlation r, the mean and variance (divisor n - 1) of
    x, and the plug-in optimum weights alpha, beta, gamma and delta.
    flags is FLAG_DEGENERATE where y, x or z is constant over the set,
    else FLAG_SINGULAR where the plug-in weights cannot be formed, else
    0.
    """

    r: np.ndarray
    xbar: np.ndarray
    s2_x: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    flags: np.ndarray


def second_phase_rows(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    second: np.ndarray,
    *,
    work: Workspace | None = None,
) -> SecondPhase:
    """Second-phase statistics of a batch of index rows (SecondPhase).

    y, x and z are gathered into work's slots "y", "x" and "z", where
    moment_rows turns them into their deviations.
    """
    work = Workspace() if work is None else work
    columns = tuple(np.asarray(arr, dtype=np.float64) for arr in (y, x, z))
    n = second.shape[1]
    gathers = (
        _gather(column, second, work.array(slot, second.shape))
        for column, slot in zip(columns, "yxz")
    )
    means, sums, std = moment_rows(*gathers, SAMPLE_TRIPLES, work=work)
    _, xbar, zbar = means
    m200, m020, m002 = ss = tuple(sums[t] for t in SECOND_ORDER_TRIPLES)

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
        weights = tuple(e / r for e in optimum_weights(d, c_x, c_z, slopes, span_x, span_z))
        singular = (
            (xbar == 0.0)
            | (zbar == 0.0)
            | (np.abs(r) < ZERO_R_TOL)
            | singular_x
            | singular_z
            | ~reduce(np.logical_and, map(np.isfinite, weights))
        )
    flags = np.zeros(second.shape[0], np.uint8)
    flags[singular] = FLAG_SINGULAR
    degenerate = (m200 <= 0.0) | (m020 <= 0.0) | (m002 <= 0.0)
    for column, mean, column_ss in zip(columns, means, ss):
        degenerate |= single_valued(column, second, mean, column_ss)
    flags[degenerate] = FLAG_DEGENERATE
    return SecondPhase(r, xbar, sx2, *weights, flags)


class PairStats(NamedTuple):
    """Statistics of b * k two-phase pairs, as columns that broadcast.

    r, u and v and the plug-in weights alpha, beta, gamma and delta are
    (b, k) arrays; w and a, which depend on the first phase only, are
    (b, 1) columns. flags is (b, k): 0 or one of FLAG_DEGENERATE,
    FLAG_NONFINITE, FLAG_SINGULAR. Entries are defined only where their
    flag allows: nothing under DEGENERATE or NONFINITE, r, u, v, w and a
    under SINGULAR.
    """

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    flags: np.ndarray


def pair_rows(
    first: FirstPhase, second: SecondPhase, i2: np.ndarray, aux_zbar: float, aux_sz2: float
) -> PairStats:
    """Statistics of the two-phase pairs that i2 spells out.

    i2 is a (b, k) array of second-phase row indices: entry [t, j] pairs
    first-phase row t with second-phase row i2[t, j]. The second-phase
    columns are taken by i2; the first-phase columns stay (b, 1) and
    broadcast over the k pairs of their row. This is the one place that
    forms the four ratios: u and v compare the second-phase mean and
    variance of x with the first-phase ones, w and a the first-phase
    mean and variance of z with the known aux_zbar and aux_sz2.
    """
    s = SecondPhase._make(column.take(i2) for column in second)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = s.xbar / first.xbar[:, None]
        v = s.s2_x / first.s2_x[:, None]
        w = (first.zbar / aux_zbar)[:, None]
        a = (first.s2_z / aux_sz2)[:, None]
    finite = reduce(np.logical_and, map(np.isfinite, (s.r, u, v, w, a)))
    # later writes win: degenerate before nonfinite before singular
    flags = s.flags & FLAG_SINGULAR
    flags[~finite] = FLAG_NONFINITE
    flags[((first.flags[:, None] | s.flags) & FLAG_DEGENERATE) != 0] = FLAG_DEGENERATE
    return PairStats(s.r, u, v, w, a, s.alpha, s.beta, s.gamma, s.delta, flags)


def stats_rows(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    aux_zbar: float,
    aux_sz2: float,
    *,
    work: Workspace | None = None,
) -> PairStats:
    """Per-sample statistics for a batch of index draws: the k = 1 case of pair_rows.

    Draw t pairs first[t] with second[t], so every field of the result
    is (M, 1) for M draws. Draws flagged SINGULAR still carry valid r,
    u, v, w and a. Both phase kernels use work, which may hold the
    draw: they write to none of its slots "first" and "second".
    """
    return pair_rows(
        first_phase_rows(x, z, first, work=work),
        second_phase_rows(y, x, z, second, work=work),
        np.arange(first.shape[0])[:, None],
        aux_zbar,
        aux_sz2,
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
