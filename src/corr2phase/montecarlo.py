"""Monte Carlo simulation and exact enumeration of the estimators.

Replication t of a run is a pure function of (seed, t), so results are
independent of chunking and of how many worker threads execute the
chunks: every replication writes to its own slot and the final
aggregation uses correctly rounded sums, whatever the order. simulate() with
workers=1 and workers=8 therefore returns bit-identical results.

simulate() sizes its chunks by n1, because the draw and the statistics
kernel need O(n1) scratch per replication; its cost per replication
does not grow with the population size N.

enumerate_exact() computes the statistics of each distinct phase once:
C(N, n1) first-phase sets and C(N, n) second-phase sets, then one
gather per pair of the C(N, n1) * C(n1, n) pairs.

Skipped replications (degenerate resamples, singular plug-in constants,
broken rational adjustments) are counted by reason. The run fails if
every replication is skipped or if the skipped fraction exceeds
max_skip_fraction, a fraction in [0, 1], because a heavily censored
mean would silently stop estimating the intended quantity.
"""

from __future__ import annotations

import itertools
import math
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


# Terms per pass of _sum: each bin then adds at most 2**26 halves of
# 53-bit mantissas, so every float64 partial sum stays exact.
SUM_BLOCK = 1 << 26
_SIGN = -(1 << 63)  # bit masks of a float64 viewed as int64
_FRACTION = (1 << 52) - 1


def _sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of float64 terms, whatever their order.

    Each term is a signed 53-bit integer mantissa times a power of two.
    The mantissas are split into a high 26-bit and a low 27-bit half,
    and each half is summed per sign and exponent with bincount. No
    partial sum then needs more than 53 significant bits, so the float
    sums are exact. The few non-empty bins are added as Python ints,
    and the total, an integer multiple of 2**-1074, is rounded once by
    int true division (exact summation by exponent, Demmel & Hida 2003).
    The result equals math.fsum of the terms, except that a finite total
    is returned where fsum raises on an intermediate overflow.
    NonFiniteEstimate if a term is not finite or the total overflows.
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
            break
        low_sums = np.bincount(key, weights=low)
        for k in np.flatnonzero(high_sums).tolist():
            e = k & 0x7FF
            mantissas = int(high_sums[k]) + int(low_sums[k])
            if e == 0:
                # zeros and subnormals have no implicit bit to count
                extra = int(np.count_nonzero(key == k)) << 52
                mantissas += extra if k & 0x800 else -extra
            total += mantissas << max(e - 1, 0)
    else:
        try:
            return total / (1 << 1074)
        except OverflowError:
            pass
    raise NonFiniteEstimate(
        f"a sum over {bits.shape[0]} kept replications overflows a float"
    )


def _aggregate(values: np.ndarray, codes: np.ndarray, rho: float):
    counts = np.bincount(codes, minlength=max(SKIP_LABELS) + 1).tolist()
    k = counts[SKIP_OK]
    total = values.shape[0]
    reasons = {label: counts[code] for code, label in SKIP_LABELS.items() if counts[code]}
    if k == 0:
        raise AllSamplesDegenerate(
            f"all {total} replications were skipped: {reasons}"
        )
    kept = values[codes == SKIP_OK]
    # an overflowing square makes its sum non-finite, which _sum reports
    with np.errstate(over="ignore"):
        mean = _sum(kept) / k
        err = kept - rho
        mse = _sum(err * err) / k
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
    draws or the result. The seed must lie in [0, 2**64). A reps count
    whose result rows do not fit in memory raises TooManySamples.
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
        rows = np.empty((reps, _kernels.NCOLS))
        flags = np.empty(reps, np.uint8)
    except (ValueError, MemoryError):
        raise TooManySamples(f"{reps} replications do not fit in memory") from None
    chunk = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n1)
    spans = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]

    def fill(span: tuple[int, int]) -> None:
        lo, hi = span
        first, second = _kernels.draw_rows(
            design.N, design.n1, design.n, hi - lo, seed, rep_lo=lo
        )
        out, fl = _kernels.stats_rows(
            frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2
        )
        rows[lo:hi] = out
        flags[lo:hi] = fl

    if workers == 1 or len(spans) == 1:
        for span in spans:
            fill(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))

    values, codes = evaluate_rows(spec, rows, flags)
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
    n-subsets of the population is computed once, and each pair
    gathers its two rows, the second found by its subset rank. The
    result equals stats_rows over every pair's index rows in C order.
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
            f"{total} two-phase pairs exceed the budget of {cap}"
        )

    m = population_moments(frame)
    aux = KnownAux(m.mean_z, m.s2_z)

    first_all = np.array(
        list(itertools.combinations(range(design.N), design.n1)), dtype=np.int64
    ).reshape(k1, design.n1)
    patterns = np.array(
        list(itertools.combinations(range(design.n1), design.n)), dtype=np.int64
    ).reshape(k2, design.n)

    # every second-phase set is an n-subset of range(N): compute each
    # one's statistics once, in itertools order, and find them by rank
    k_sets = math.comb(design.N, design.n)
    second_rows = np.empty((k_sets, _kernels.SECOND_COLS))
    second_flags = np.empty(k_sets, np.uint8)
    subsets = itertools.combinations(range(design.N), design.n)
    step = _kernels.chunk_rows(_kernels.SCRATCH_PER_N1 * design.n)
    for lo in range(0, k_sets, step):
        sets = np.array(list(itertools.islice(subsets, step)), dtype=np.int64)
        hi = lo + sets.shape[0]
        second_rows[lo:hi], second_flags[lo:hi] = _kernels.second_phase_rows(
            frame.y, frame.x, frame.z, sets
        )
    rank = _kernels.subset_ranker(design.N, design.n)

    values = np.empty(total)
    codes = np.empty(total, np.uint8)
    block = max(1, _kernels.chunk_rows(design.N, cap=65536) // k2)
    for i in range(0, k1, block):
        fblock = first_all[i : i + block]
        b = fblock.shape[0]
        rows, flags = _kernels.pair_rows(
            _kernels.first_phase_rows(frame.x, frame.z, fblock, aux.zbar, aux.sz2),
            (second_rows, second_flags),
            np.repeat(np.arange(b), k2),
            rank(fblock, patterns).reshape(b * k2),
        )
        vals, cds = evaluate_rows(spec, rows, flags)
        values[i * k2 : i * k2 + b * k2] = vals
        codes[i * k2 : i * k2 + b * k2] = cds

    k, skipped, reasons, mean, mse = _aggregate(values, codes, m.rho_yx)
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
