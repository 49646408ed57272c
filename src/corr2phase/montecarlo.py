"""Monte Carlo simulation and exact enumeration of the estimators.

Replication t of a run is a pure function of (seed, t), so results are
independent of chunking and of how many worker threads execute the
chunks: every replication writes to its own slot and every tally is
exact, whatever the order. simulate() with workers=1 and workers=8
therefore returns bit-identical results.

simulate() sizes its chunks by n1, because the draw and the statistics
kernel need O(n1) scratch per replication; its cost per replication
does not grow with the population size N. Each chunk is drawn, paired
(the k = 1 case of _kernels.pair_rows), evaluated and added to its
thread's tally in one go, so a run keeps only one value per replication,
for the standard errors. Each thread of a run takes every threads-th
chunk, and the kernels of all its chunks write into the one
_kernels.Workspace it makes; nothing is kept from one call to the next.

enumerate_exact() computes the statistics of each distinct phase once:
C(N, n1) first-phase sets and C(N, n) second-phase sets. It then
streams the C(N, n1) * C(n1, n) pairs in blocks of at most
_kernels.PAIR_BLOCK pairs: the second-phase columns are taken by the
ranks of each set's subsets, the first-phase columns broadcast over
them, and each block is evaluated and added to the run's tally before
the next is formed. It holds the C(N, n)-row second-phase table, one chunk
of first-phase sets with their statistics (chunk_rows bounds it as it
bounds the second-phase chunks), one slice of subset patterns and one
block, whatever the number of pairs.

Both drivers tally with one step, _aggregate, and every total is exact:
_exact_total sums float64 terms by error-free extraction into a Python
int. _settle adds a run's tallies and rounds each total once.

Skipped replications (degenerate resamples, singular plug-in constants,
broken rational adjustments) are counted by reason. The run fails if
every replication is skipped or if the skipped fraction exceeds
max_skip_fraction, a fraction in [0, 1], because a heavily censored
mean would silently stop estimating the intended quantity.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels, analytics
from .errors import (
    SKIP_OK,
    SKIPS,
    AllSamplesDegenerate,
    Corr2PhaseError,
    ExcessiveSkips,
    InvalidParameter,
    NonFiniteEstimate,
    TooManySamples,
)
from .estimators import EstimatorSpec, evaluate_rows, parse_estimator
from .moments import MomentSet, PopulationFrame, population_moments
from .sampling import DesignSpec, KnownAux, _check_population


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate of one simulation run.

    empirical_mse averages squared error against the population
    correlation. mc_se_mean and mc_se_mse are Monte Carlo standard
    errors of mean_estimate and empirical_mse; they are NaN when fewer
    than two replications survive. analytic_variance carries the
    matching first-order variance when one exists, else None.
    """

    design: DesignSpec
    estimator: str
    seed: int
    rho_yx: float
    reps_requested: int
    reps_used: int
    reps_skipped: int
    skip_reasons: Mapping[str, int]
    mean_estimate: float
    bias: float
    empirical_mse: float
    mc_se_mean: float
    mc_se_mse: float
    analytic_variance: float | None


@dataclass(frozen=True)
class EnumerationResult:
    """Exact design distribution summary over every two-phase pair."""

    design: DesignSpec
    estimator: str
    rho_yx: float
    pairs_total: int
    pairs_used: int
    pairs_skipped: int
    skip_reasons: Mapping[str, int]
    mean_estimate: float
    bias: float
    exact_mse: float


def _as_spec(estimator: EstimatorSpec | str) -> EstimatorSpec:
    if isinstance(estimator, EstimatorSpec):
        return estimator
    return parse_estimator(estimator)


def analytic_variance_for(
    m: MomentSet, design: DesignSpec, spec: EstimatorSpec
) -> float | None:
    """First-order variance matching an estimator, or None if undefined.

    Fixed-constant kinds get their class variance at those constants;
    the plug-in kinds get the minimized two-auxiliary variance, which is
    their first-order variance because estimating the optimal weights
    costs nothing at first order.
    """
    n, n1 = design.n, design.n1
    try:
        if spec.kind == "sample-r":
            return analytics.var_r(m, n)
        if spec.kind == "chain-ratio":
            return analytics.var_t_class(m, n, n1, (-1.0, -1.0, -1.0, -1.0))
        if spec.kind in ("gen-power", "t-power", "t-linear"):
            return analytics.var_t_class(m, n, n1, spec.constants)
        if spec.kind in ("h-power", "h-linear"):
            return analytics.var_h_class(m, n, n1, spec.constants)
        if spec.kind == "difference":
            return analytics.var_difference_class(m, n, n1, spec.constants)
        return analytics.min_var_td(m, n, n1)
    except Corr2PhaseError:
        return None


# Terms per pass of _exact_total. A pass of n terms extracts 53 -
# ceil(log2 n) bits per round, so the pass must stay well below 2**53
# terms; at 2**26 a round still gains 27 bits.
SUM_BLOCK = 1 << 26
# Terms too large for an extraction constant are scaled down by this
# power of two, which keeps them normal and so exact.
_BIG_SHIFT = 128


def _pass_total(x: np.ndarray) -> int | None:
    """_exact_total of at most SUM_BLOCK float64 terms."""
    n = x.shape[0]
    if n == 0:
        return 0
    hi, lo = float(x.max()), float(x.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):  # NaN reaches both
        return None
    spread = (n - 1).bit_length()  # 2**spread >= n
    top = max(hi, -lo)
    total = 0
    # sigma = 2**(e + spread) with |x| < 2**e, and sigma + x stays
    # finite, only while |x| < 2**(1022 - spread)
    limit = math.ldexp(1.0, 1022 - spread)
    if top >= limit:
        big = np.abs(x) >= limit
        total = _pass_total(x[big] * math.ldexp(1.0, -_BIG_SHIFT)) << _BIG_SHIFT
        x = x[~big]
        top = max(float(x.max()), -float(x.min())) if x.shape[0] else 0.0
    q = rest = None
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + spread)
        q = np.add(x, sigma, out=q)
        q -= sigma  # each term's part on the grid of sigma * 2**-53
        x = rest = np.subtract(x, q, out=rest)
        num, den = float(q.sum()).as_integer_ratio()
        total += num << (1075 - den.bit_length())  # den is 2**(bit_length - 1)
        top = max(float(x.max()), -float(x.min()))
    return total


def _exact_total(terms: np.ndarray) -> int | None:
    """The exact sum of float64 terms, in units of 2**-1074; None if a term is not finite.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): with n terms below 2**e
    in magnitude and sigma = 2**(e + ceil(log2 n)), q = (x + sigma) -
    sigma and x - q are both exact, every q is a multiple of
    sigma * 2**-53 of magnitude at most sigma / n, so the float sum of
    the q is exact in any order. That sum is added to a Python int and
    the round repeats on the remainders x - q until all are zero, each
    round taking 53 - ceil(log2 n) more bits. Terms too large for
    sigma to be finite are summed scaled down by an exact power of two.
    Totals of separate pieces of an array add up to the total of the
    whole.
    """
    x = np.ascontiguousarray(terms, dtype=np.float64)
    total = 0
    for lo in range(0, x.shape[0], SUM_BLOCK):
        part = _pass_total(x[lo : lo + SUM_BLOCK])
        if part is None:
            return None
        total += part
    return total


def _add_totals(a: int | None, b: int | None) -> int | None:
    """The total of two pieces; a non-finite piece (None) makes it None."""
    return None if a is None or b is None else a + b


def _round_total(total: int | None, count: int, unit: str) -> float:
    """An exact total from _exact_total, rounded once by int true division.

    NonFiniteEstimate if a term of the count summed was not finite or
    the total overflows; its message counts the terms in unit, such as
    "replications".
    """
    if total is not None:
        try:
            return total / (1 << 1074)
        except OverflowError:
            pass
    raise NonFiniteEstimate(f"a sum over {count} kept {unit} overflows a float")


def _sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of float64 terms, whatever their order.

    The exact total, rounded once. The result equals math.fsum of the
    terms, except that a finite total is returned where fsum raises on
    an intermediate overflow. NonFiniteEstimate if a term is not finite
    or the total overflows.
    """
    return _round_total(_exact_total(terms), len(terms), "replications")


# Skip-code counts, and exact totals of the kept values and of their
# squared errors, of no values at all.
_NO_TALLY = (np.zeros(max(SKIPS) + 1, np.int64), 0, 0)


def _aggregate(tally, values: np.ndarray, codes: np.ndarray, rho: float):
    """The one tally step: a running tally with one more block of evaluated values added.

    A tally holds the skip-code counts, and the exact totals of the kept
    values and of their squared errors against rho. Tallies are exact, so
    the way the values are cut into blocks or threads does not change them.
    """
    counts, kept_total, err_total = tally
    keep = codes == SKIP_OK
    kept = values[keep]
    # bincount the few skipped codes only; it is slow on long arrays
    counts = counts + np.bincount(codes[~keep], minlength=counts.shape[0])
    counts[SKIP_OK] += kept.shape[0]
    # an overflowing square makes its total non-finite, which
    # _round_total reports
    with np.errstate(over="ignore"):
        err = kept - rho
        err *= err
    return (
        counts,
        _add_totals(kept_total, _exact_total(kept)),
        _add_totals(err_total, _exact_total(err)),
    )


def _settle(tallies, unit: str):
    """Skip accounting, mean and MSE of a run from its tallies, each total rounded once.

    unit names what the run counts in its errors: "replications" or "pairs".
    """
    counts, kept_total, err_total = _NO_TALLY
    for more, kept, err in tallies:
        counts = counts + more
        kept_total = _add_totals(kept_total, kept)
        err_total = _add_totals(err_total, err)
    counts = counts.tolist()
    k = counts[SKIP_OK]
    total = sum(counts)
    reasons = {skip.label: counts[code] for code, skip in SKIPS.items() if counts[code]}
    if k == 0:
        raise AllSamplesDegenerate(f"all {total} {unit} were skipped: {reasons}")
    mean = _round_total(kept_total, k, unit) / k
    mse = _round_total(err_total, k, unit) / k
    return k, total - k, reasons, mean, mse


def _standard_errors(kept: np.ndarray, rho: float, mean: float, mse: float):
    """Monte Carlo standard errors of the mean and of the MSE of kept values.

    Each variance takes a second exact pass around its mean, with the
    correction term of Chan, Golub & LeVeque (1983) for the rounding of
    that mean, so it does not cancel when the values barely spread.
    Both are NaN when fewer than two values were kept.
    """
    k = kept.shape[0]
    if k < 2:
        return float("nan"), float("nan")

    def variance(values: np.ndarray, centre: float) -> float:
        dev = values - centre
        drift = _sum(dev)
        return max((_sum(dev * dev) - drift * (drift / k)) / (k - 1), 0.0)

    with np.errstate(over="ignore"):
        err = kept - rho
        var_v = variance(kept, mean)
        var_q = variance(err * err, mse)
    return math.sqrt(var_v / k), math.sqrt(var_q / k)


def _check_skip_fraction(budget: float) -> None:
    # NaN fails both comparisons, so it cannot switch the budget off
    if not 0.0 <= budget <= 1.0:
        raise InvalidParameter(
            f"max_skip_fraction must lie in [0, 1], got {budget!r}"
        )


def _check_skip_budget(
    skipped: int, total: int, reasons: Mapping[str, int], budget: float, unit: str
) -> None:
    if skipped > budget * total:
        raise ExcessiveSkips(
            f"{skipped} of {total} {unit} skipped "
            f"({skipped / total:.2%} > {budget:.2%} allowed): {reasons}"
        )


def simulate(
    frame: PopulationFrame,
    design: DesignSpec,
    estimator: EstimatorSpec | str,
    reps: int,
    seed: int,
    workers: int = 1,
    max_skip_fraction: float = 0.01,
) -> SimulationResult:
    """Repeatedly draw two-phase samples and evaluate one estimator.

    The known z moments handed to the estimators are the exact
    population values of the frame. Results depend on (frame, design,
    estimator, reps, seed) only; workers change speed, never the
    draws or the result, and at most min(workers, chunks, CPUs) threads
    run. The seed must lie in [0, 2**64). A reps count whose values do
    not fit in memory raises TooManySamples.
    """
    spec = _as_spec(estimator)
    _check_population(design, frame)
    if reps < 1:
        raise InvalidParameter("reps must be at least 1")
    if workers < 1:
        raise InvalidParameter("workers must be at least 1")
    _check_skip_fraction(max_skip_fraction)

    m = population_moments(frame)
    aux = KnownAux(m.mean_z, m.s2_z)

    try:
        values = np.empty(reps)
    except (ValueError, MemoryError):
        raise TooManySamples(f"{reps} replications do not fit in memory") from None
    chunk = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n1)
    spans = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]

    def fill(share: list[tuple[int, int]]):
        work = _kernels.Workspace()
        tally = _NO_TALLY
        for lo, hi in share:
            first, second = _kernels.draw_rows(
                design.N, design.n1, design.n, hi - lo, seed, rep_lo=lo, work=work
            )
            stats = _kernels.stats_rows(
                frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2, work=work
            )
            values[lo:hi], codes = evaluate_rows(spec, stats)
            tally = _aggregate(tally, values[lo:hi], codes, m.rho_yx)
        return tally

    # more threads than spans or cores would only cost; each thread
    # fills every threads-th span with one workspace
    threads = min(workers, len(spans), os.cpu_count() or 1)
    if threads == 1:
        tallies = [fill(spans)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(fill, (spans[i::threads] for i in range(threads))))

    k, skipped, reasons, mean, mse = _settle(tallies, "replications")
    # evaluate_rows leaves NaN exactly where a replication is skipped
    se_mean, se_mse = _standard_errors(values[~np.isnan(values)], m.rho_yx, mean, mse)
    _check_skip_budget(skipped, reps, reasons, max_skip_fraction, "replications")
    return SimulationResult(
        design=design,
        estimator=spec.label(),
        seed=int(seed),
        rho_yx=m.rho_yx,
        reps_requested=reps,
        reps_used=k,
        reps_skipped=skipped,
        skip_reasons=reasons,
        mean_estimate=mean,
        bias=mean - m.rho_yx,
        empirical_mse=mse,
        mc_se_mean=se_mean,
        mc_se_mse=se_mse,
        analytic_variance=analytic_variance_for(m, design, spec),
    )


def _next_sets(sets, count: int, width: int) -> np.ndarray:
    """The next count index tuples of an itertools iterator, as (rows, width) int64."""
    flat = itertools.chain.from_iterable(itertools.islice(sets, count))
    return np.fromiter(flat, np.int64).reshape(-1, width)


def _count_text(count: int) -> str:
    """A positive count in full when short, else its size, as in "about 10^8830.7".

    Python refuses to print an int of more than 4300 digits, and
    float(count) overflows long before that; math.log10 takes any int.
    """
    return str(count) if count < 10**30 else f"about 10^{math.log10(count):.1f}"


def enumerate_exact(
    frame: PopulationFrame,
    design: DesignSpec,
    estimator: EstimatorSpec | str,
    cap: int = 2_000_000,
    max_skip_fraction: float = 0.01,
) -> EnumerationResult:
    """Average an estimator over every possible two-phase sample.

    Under the uniform two-phase design each (first, second) pair is
    equally likely, so the plain average over all C(N, n1) * C(n1, n)
    pairs is the exact design expectation, and the averaged squared
    error the exact design MSE, conditional on the skip policy that the
    simulation also applies.

    Phase-one statistics depend only on the first-phase set, and r, the
    second-phase moments and the plug-in weights only on the second.
    So each of the C(N, n1) first-phase sets and each of the C(N, n)
    n-subsets of the population is computed once, the latter into one
    C(N, n)-row table. The pairs are formed in blocks of at most
    _kernels.PAIR_BLOCK: PAIR_BLOCK // C(n1, n) whole first-phase sets
    when that is at least one, else slices of one set's C(n1, n)
    second-phase patterns. The first-phase sets and their statistics
    are formed a chunk of whole blocks at a time, and each chunk reads
    the patterns from itertools a slice at a time. A set's row
    broadcasts over the subset ranks of its patterns, and each block is
    evaluated and tallied exactly before the next is formed. So the
    call holds that table, one chunk of sets, one slice of patterns and
    one block, whatever the number of pairs, and the result equals
    stats_rows over every pair's index rows in C order, whatever the
    block and chunk sizes. A pair count above cap, or a table that does
    not fit in memory, raises TooManySamples.
    """
    spec = _as_spec(estimator)
    _check_population(design, frame)
    _check_skip_fraction(max_skip_fraction)
    k1 = math.comb(design.N, design.n1)
    k2 = math.comb(design.n1, design.n)
    total = k1 * k2
    if total > cap:
        raise TooManySamples(
            f"{_count_text(total)} two-phase pairs exceed the budget of {cap}"
        )

    m = population_moments(frame)
    aux = KnownAux(m.mean_z, m.s2_z)

    # every second-phase set is an n-subset of range(N): compute each
    # one's statistics once, in itertools order, into one table found by rank
    subsets = itertools.combinations(range(design.N), design.n)
    count = math.comb(design.N, design.n)
    try:
        second = _kernels.SecondPhase._make(
            np.empty(count, np.uint8 if field == "flags" else np.float64)
            for field in _kernels.SecondPhase._fields
        )
    except (ValueError, MemoryError):
        raise TooManySamples(
            f"the {_count_text(count)} second-phase sets do not fit in memory"
        ) from None
    step = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n)
    for lo in range(0, count, step):
        part = _kernels.second_phase_rows(
            frame.y, frame.x, frame.z, _next_sets(subsets, step, design.n)
        )
        for column, piece in zip(second, part):
            column[lo : lo + step] = piece
    rank = _kernels.subset_ranker(design.N, design.n)

    # whole first-phase sets per block while they fit in the budget,
    # else one set per block with its patterns a slice at a time; the
    # sets and their statistics come a chunk of whole blocks at a time,
    # and each chunk's patterns slice by slice from itertools
    budget = _kernels.PAIR_BLOCK
    block, width = max(1, budget // k2), min(k2, budget)
    chunk = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n1)
    chunk = max(1, chunk // block) * block
    first_sets = itertools.combinations(range(design.N), design.n1)
    tally = _NO_TALLY
    for _ in range(0, k1, chunk):
        fchunk = _next_sets(first_sets, chunk, design.n1)
        first = _kernels.first_phase_rows(frame.x, frame.z, fchunk)
        patterns = itertools.combinations(range(design.n1), design.n)
        for _ in range(0, k2, width):
            some = _next_sets(patterns, width, design.n)
            for lo in range(0, fchunk.shape[0], block):
                hi = lo + block
                stats = _kernels.pair_rows(
                    _kernels.FirstPhase._make(column[lo:hi] for column in first),
                    second,
                    rank(fchunk[lo:hi], some),
                    aux.zbar,
                    aux.sz2,
                )
                values, codes = evaluate_rows(spec, stats)
                tally = _aggregate(tally, values, codes, m.rho_yx)

    k, skipped, reasons, mean, mse = _settle([tally], "pairs")
    _check_skip_budget(skipped, total, reasons, max_skip_fraction, "pairs")
    return EnumerationResult(
        design=design,
        estimator=spec.label(),
        rho_yx=m.rho_yx,
        pairs_total=total,
        pairs_used=k,
        pairs_skipped=skipped,
        skip_reasons=reasons,
        mean_estimate=mean,
        bias=mean - m.rho_yx,
        exact_mse=mse,
    )


def synthetic_population(N: int, seed: int) -> PopulationFrame:
    """Gaussian-chain population with strong, known correlation structure.

    z drives x and x drives y, all with positive means several standard
    deviations above zero. With the constants below the population
    correlations land near rho_xz ~ 0.95 and rho_yx ~ 0.94, the regime
    where auxiliary adjustments pay off.
    """
    if N < 4:
        raise InvalidParameter("need at least 4 units")
    rng = np.random.Generator(np.random.PCG64(seed))
    gz, gx, gy = rng.standard_normal((3, N))
    z = 50.0 + 10.0 * gz
    x = 60.0 + 1.2 * (z - 50.0) + 4.0 * gx
    y = 100.0 + 1.5 * (x - 60.0) + 7.0 * gy
    return PopulationFrame(y=y, x=x, z=z)


def random_population(N: int, seed: int) -> PopulationFrame:
    """Population with seed-dependent skewness and correlation strength.

    Same chain structure as synthetic_population but with slopes, noise
    scales, and third-moment shape drawn from the seed, for property
    tests that need many structurally different moment tables. Means
    stay far from zero and correlations stay bounded away from zero.
    """
    if N < 4:
        raise InvalidParameter("need at least 4 units")
    rng = np.random.Generator(np.random.PCG64(seed))
    gz, gx, gy = rng.standard_normal((3, N))
    skew_z, skew_x, skew_y = rng.uniform(-0.3, 0.3, size=3)
    slope_x, slope_y = rng.uniform(0.6, 1.6, size=2)
    noise_x, noise_y = rng.uniform(0.5, 1.5, size=2)
    z0 = gz + skew_z * (gz * gz - 1.0)
    x0 = slope_x * z0 + noise_x * (gx + skew_x * (gx * gx - 1.0))
    y0 = slope_y * x0 + noise_y * (gy + skew_y * (gy * gy - 1.0))
    return PopulationFrame(
        y=120.0 + 12.0 * y0,
        x=60.0 + 10.0 * x0,
        z=40.0 + 8.0 * z0,
    )
