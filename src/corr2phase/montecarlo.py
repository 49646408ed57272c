"""Monte Carlo simulation and exact enumeration of the estimators.

Replication t of a run is a pure function of (seed, t), so results are
independent of chunking and of how many worker threads execute the
chunks: every replication writes to its own slot and the final
aggregation uses correctly rounded sums, whatever the order. simulate() with
workers=1 and workers=8 therefore returns bit-identical results.

simulate() sizes its chunks by n1, because the draw and the statistics
kernel need O(n1) scratch per replication; its cost per replication
does not grow with the population size N. Each chunk is drawn, paired
(the k = 1 case of _kernels.pair_rows) and evaluated in one go, so a run
keeps only one value and one skip code per replication. Each thread of
a run takes every threads-th chunk, and the kernels of all its chunks
write into the one _kernels.Workspace it makes; nothing is kept from
one call to the next.

enumerate_exact() computes the statistics of each distinct phase once:
C(N, n1) first-phase sets and C(N, n) second-phase sets. It then
streams the C(N, n1) * C(n1, n) pairs block by block: the second-phase
columns are taken by the ranks of each set's subsets, the first-phase
columns broadcast over them, and each block is evaluated and added to
exact totals before the next is formed, so it holds O(block) memory
whatever the number of pairs.

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
    AllSamplesDegenerate,
    Corr2PhaseError,
    ExcessiveSkips,
    InvalidDesign,
    InvalidParameter,
    NonFiniteEstimate,
    TooManySamples,
)
from .estimators import SKIP_LABELS, SKIP_OK, EstimatorSpec, evaluate_rows, parse_estimator
from .moments import MomentSet, PopulationFrame, population_moments
from .sampling import DesignSpec, KnownAux


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


# Terms per pass of _exact_total: each bin then adds at most 2**26
# halves of 53-bit mantissas, so every float64 partial sum stays exact.
SUM_BLOCK = 1 << 26
_SIGN = -(1 << 63)  # bit masks of a float64 viewed as int64
_FRACTION = (1 << 52) - 1


def _exact_total(terms: np.ndarray) -> int | None:
    """The exact sum of float64 terms, in units of 2**-1074; None if a term is not finite.

    Each term is a signed 53-bit integer mantissa times a power of two.
    The mantissas are split into a high 26-bit and a low 27-bit half,
    and each half is summed per sign and exponent with bincount. No
    partial sum then needs more than 53 significant bits, so the float
    sums are exact. The few non-empty bins are added as Python ints
    (exact summation by exponent, Demmel & Hida 2003). Totals of
    separate pieces of an array add up to the total of the whole.
    """
    bits = np.ascontiguousarray(terms, dtype=np.float64).view(np.int64)
    total = 0
    for lo in range(0, bits.shape[0], SUM_BLOCK):
        block = bits[lo : lo + SUM_BLOCK]
        key = block >> 52
        key &= 0xFFF  # sign and biased exponent
        # the mantissa with its implicit bit, and its high half, as
        # integral floats: the exponent field set to that of 2**52
        whole = block & (_SIGN | _FRACTION)
        whole |= 1075 << 52
        high = block & (_SIGN | _FRACTION & -(1 << 27))
        high |= 1075 << 52
        high = high.view(np.float64)
        low = whole.view(np.float64)
        low -= high
        high_sums = np.bincount(key, weights=high)
        if high_sums[0x7FF::0x800].any():  # an inf or NaN term
            return None
        low_sums = np.bincount(key, weights=low)
        for k in np.flatnonzero(high_sums).tolist():
            e = k & 0x7FF
            mantissas = int(high_sums[k]) + int(low_sums[k])
            if e == 0:
                # zeros and subnormals have no implicit bit to count
                extra = int(np.count_nonzero(key == k)) << 52
                mantissas += extra if k & 0x800 else -extra
            total += mantissas << max(e - 1, 0)
    return total


def _add_totals(a: int | None, b: int | None) -> int | None:
    """The total of two pieces; a non-finite piece (None) makes it None."""
    return None if a is None or b is None else a + b


def _round_total(total: int | None, count: int) -> float:
    """An exact total from _exact_total, rounded once by int true division.

    NonFiniteEstimate if a term of the count summed was not finite or
    the total overflows.
    """
    if total is not None:
        try:
            return total / (1 << 1074)
        except OverflowError:
            pass
    raise NonFiniteEstimate(f"a sum over {count} kept replications overflows a float")


def _sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of float64 terms, whatever their order.

    The exact total, rounded once. The result equals math.fsum of the
    terms, except that a finite total is returned where fsum raises on
    an intermediate overflow. NonFiniteEstimate if a term is not finite
    or the total overflows.
    """
    return _round_total(_exact_total(terms), len(terms))


# Skip-code counts, and exact totals of the kept values and of their
# squared errors, of no values at all.
_NO_TALLY = (np.zeros(max(SKIP_LABELS) + 1, np.int64), 0, 0)


def _tally(tally, values: np.ndarray, codes: np.ndarray, rho: float):
    """A running tally with one more block of evaluated values added.

    A tally holds the skip-code counts, and the exact totals of the kept
    values and of their squared errors against rho. Tallies are exact,
    so the way the values are cut into blocks does not change them.
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


def _settle(tally):
    """Skip accounting, mean and MSE of a run from its tally, each total rounded once."""
    counts, kept_total, err_total = tally
    counts = counts.tolist()
    k = counts[SKIP_OK]
    total = sum(counts)
    reasons = {label: counts[code] for code, label in SKIP_LABELS.items() if counts[code]}
    if k == 0:
        raise AllSamplesDegenerate(
            f"all {total} replications were skipped: {reasons}"
        )
    mean = _round_total(kept_total, k) / k
    mse = _round_total(err_total, k) / k
    return k, total - k, reasons, mean, mse


def _aggregate(values: np.ndarray, codes: np.ndarray, rho: float):
    """_settle of the tally of one block: all the values of a run at once."""
    return _settle(_tally(_NO_TALLY, values, codes, rho))


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
    skipped: int, total: int, reasons: Mapping[str, int], budget: float
) -> None:
    if skipped > budget * total:
        raise ExcessiveSkips(
            f"{skipped} of {total} replications skipped "
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
    run. The seed must lie in [0, 2**64). A reps count whose values and
    skip codes do not fit in memory raises TooManySamples.
    """
    spec = _as_spec(estimator)
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")
    if reps < 1:
        raise InvalidParameter("reps must be at least 1")
    if workers < 1:
        raise InvalidParameter("workers must be at least 1")
    _check_skip_fraction(max_skip_fraction)

    m = population_moments(frame)
    aux = KnownAux(m.mean_z, m.s2_z)

    try:
        values = np.empty(reps)
        codes = np.empty(reps, np.uint8)
    except (ValueError, MemoryError):
        raise TooManySamples(f"{reps} replications do not fit in memory") from None
    chunk = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n1)
    spans = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]

    def fill(share: list[tuple[int, int]]) -> None:
        work = _kernels.Workspace()
        for lo, hi in share:
            first, second = _kernels.draw_rows(
                design.N, design.n1, design.n, hi - lo, seed, rep_lo=lo, work=work
            )
            stats = _kernels.stats_rows(
                frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2, work=work
            )
            values[lo:hi], codes[lo:hi] = evaluate_rows(spec, stats)

    # more threads than spans or cores would only cost; each thread
    # fills every threads-th span with one workspace
    threads = min(workers, len(spans), os.cpu_count() or 1)
    if threads == 1:
        fill(spans)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, (spans[i::threads] for i in range(threads))))

    k, skipped, reasons, mean, mse = _aggregate(values, codes, m.rho_yx)
    se_mean, se_mse = _standard_errors(values[codes == SKIP_OK], m.rho_yx, mean, mse)
    _check_skip_budget(skipped, reps, reasons, max_skip_fraction)
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
    n-subsets of the population is computed once. The pairs are formed
    a block of first-phase sets at a time, each set's row broadcast over
    the subset ranks of its C(n1, n) second-phase sets, and each block
    is evaluated and tallied exactly before the next is formed. The
    result equals stats_rows over every pair's index rows in C order,
    whatever the block size.
    """
    spec = _as_spec(estimator)
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")
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

    patterns = _next_sets(
        itertools.combinations(range(design.n1), design.n), k2, design.n
    )

    # every second-phase set is an n-subset of range(N): compute each
    # one's statistics once, in itertools order, and find them by rank
    subsets = itertools.combinations(range(design.N), design.n)
    step = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n)
    parts = (
        _kernels.second_phase_rows(frame.y, frame.x, frame.z, _next_sets(subsets, step, design.n))
        for _ in range(0, math.comb(design.N, design.n), step)
    )
    second = _kernels.SecondPhase._make(map(np.concatenate, zip(*parts)))
    rank = _kernels.subset_ranker(design.N, design.n)

    first_sets = itertools.combinations(range(design.N), design.n1)
    block = max(1, _kernels.chunk_rows(design.N, cap=65536) // k2)
    tally = _NO_TALLY
    for _ in range(0, k1, block):
        fblock = _next_sets(first_sets, block, design.n1)
        stats = _kernels.pair_rows(
            _kernels.first_phase_rows(frame.x, frame.z, fblock),
            second,
            rank(fblock, patterns),
            aux.zbar,
            aux.sz2,
        )
        values, codes = evaluate_rows(spec, stats)
        tally = _tally(tally, values, codes, m.rho_yx)

    k, skipped, reasons, mean, mse = _settle(tally)
    _check_skip_budget(skipped, total, reasons, max_skip_fraction)
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
