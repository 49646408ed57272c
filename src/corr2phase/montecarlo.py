"""Monte Carlo simulation and exact enumeration of the estimators.

Replication t of a run is a pure function of (seed, t), so results are
independent of chunking and of how many worker threads execute the
chunks: every replication writes to its own slot and the final
aggregation uses exact compensated sums in slot order. simulate() with
workers=1 and workers=8 therefore returns bit-identical results.

Skipped replications (degenerate resamples, singular plug-in constants,
broken rational adjustments) are counted by reason. The run fails if
every replication is skipped or if the skipped fraction exceeds
max_skip_fraction, because a heavily censored mean would silently stop
estimating the intended quantity.
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


def _sum(terms: np.ndarray) -> float:
    """Exact sum of an aggregate; NonFiniteEstimate if it overflows."""
    try:
        total = math.fsum(terms.tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NonFiniteEstimate(
            f"a sum over {terms.shape[0]} kept replications overflows a float"
        )
    return total


def _aggregate(values: np.ndarray, codes: np.ndarray, rho: float):
    used = codes == SKIP_OK
    k = int(np.count_nonzero(used))
    total = values.shape[0]
    reasons: dict[str, int] = {}
    for code, label in SKIP_LABELS.items():
        count = int(np.count_nonzero(codes == code))
        if count:
            reasons[label] = count
    if k == 0:
        raise AllSamplesDegenerate(
            f"all {total} replications were skipped: {reasons}"
        )
    kept = values[used]
    # an overflowing square makes its sum non-finite, which _sum reports
    with np.errstate(over="ignore"):
        mean = _sum(kept) / k
        err = kept - rho
        qs = err * err
        mse = _sum(qs) / k
        if k >= 2:
            ss_v = _sum(kept * kept)
            var_v = max((ss_v - k * mean * mean) / (k - 1), 0.0)
            se_mean = math.sqrt(var_v / k)
            ss_q = _sum(qs * qs)
            var_q = max((ss_q - k * mse * mse) / (k - 1), 0.0)
            se_mse = math.sqrt(var_q / k)
        else:
            se_mean = float("nan")
            se_mse = float("nan")
    return k, total - k, reasons, mean, mse, se_mean, se_mse


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
    draws or the result. The seed must lie in [0, 2**64).
    """
    spec = _as_spec(estimator)
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")
    if reps < 1:
        raise InvalidParameter("reps must be at least 1")
    if workers < 1:
        raise InvalidParameter("workers must be at least 1")

    m = population_moments(frame)
    aux = KnownAux.from_frame(frame)

    rows = np.empty((reps, _kernels.NCOLS))
    flags = np.empty(reps, np.uint8)
    chunk = _kernels.chunk_rows(frame.N)
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
    k, skipped, reasons, mean, mse, se_mean, se_mse = _aggregate(
        values, codes, m.rho_yx
    )
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
    """
    spec = _as_spec(estimator)
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")
    k1 = math.comb(design.N, design.n1)
    k2 = math.comb(design.n1, design.n)
    total = k1 * k2
    if total > cap:
        raise TooManySamples(
            f"{total} two-phase pairs exceed the budget of {cap}"
        )

    m = population_moments(frame)
    aux = KnownAux.from_frame(frame)

    first_all = np.array(
        list(itertools.combinations(range(design.N), design.n1)), dtype=np.int64
    ).reshape(k1, design.n1)
    patterns = np.array(
        list(itertools.combinations(range(design.n1), design.n)), dtype=np.int64
    ).reshape(k2, design.n)

    values = np.empty(total)
    codes = np.empty(total, np.uint8)
    block = max(1, _kernels.chunk_rows(design.N, cap=65536) // k2)
    for i in range(0, k1, block):
        fblock = first_all[i : i + block]
        b = fblock.shape[0]
        first = np.repeat(fblock, k2, axis=0)
        second = fblock[:, patterns].reshape(b * k2, design.n)
        rows, flags = _kernels.stats_rows(
            frame.y, frame.x, frame.z, first, second, aux.zbar, aux.sz2
        )
        vals, cds = evaluate_rows(spec, rows, flags)
        values[i * k2 : i * k2 + b * k2] = vals
        codes[i * k2 : i * k2 + b * k2] = cds

    k, skipped, reasons, mean, mse, _, _ = _aggregate(values, codes, m.rho_yx)
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
