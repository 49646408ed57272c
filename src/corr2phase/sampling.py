"""Two-phase sample designs, draws, and per-sample statistics.

Phase one draws n1 units from the N population units without
replacement and observes (x, z). Phase two draws n of those n1 units,
again without replacement, and observes y as well. Estimators then
combine second-phase statistics with first-phase statistics and the
known population mean and variance of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels
from .errors import (
    SKIP_DEGENERATE,
    DegenerateSample,
    InvalidDesign,
    InvalidParameter,
    NonPositiveVariance,
    SingularDenominator,
)
from .moments import PopulationFrame, _finite, delta_name, population_moments


@dataclass(frozen=True)
class DesignSpec:
    """Sizes of a two-phase design: 2 <= n <= n1 <= N.

    Both phases may be censuses; n == n1 makes phase two a copy of
    phase one and n1 == N makes phase one the whole population. Those
    corners are legal because they give exact enumeration fixtures and
    clean collapse tests.
    """

    N: int
    n1: int
    n: int

    def __post_init__(self) -> None:
        for name in ("N", "n1", "n"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidDesign(f"{name} must be an int, got {value!r}")
        if not (2 <= self.n <= self.n1 <= self.N):
            raise InvalidDesign(
                f"need 2 <= n <= n1 <= N, got n={self.n}, n1={self.n1}, N={self.N}"
            )


@dataclass(frozen=True)
class KnownAux:
    """Known population mean and variance (divisor N - 1) of z."""

    zbar: float
    sz2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.zbar) and math.isfinite(self.sz2)):
            raise InvalidParameter("known z moments must be finite")
        if self.zbar == 0.0:
            raise InvalidParameter(
                "known mean of z must be nonzero; ratio adjustments in z "
                "are undefined otherwise"
            )
        if self.sz2 <= 0.0:
            raise NonPositiveVariance("known variance of z must be positive")

    @classmethod
    def from_frame(cls, frame: PopulationFrame) -> "KnownAux":
        """The z moments of population_moments(frame), with its errors."""
        m = population_moments(frame)
        return cls(zbar=m.mean_z, sz2=m.s2_z)


@dataclass(frozen=True)
class TwoPhaseSample:
    """Index sets of one two-phase draw, second phase nested in first.

    Both index arrays are sorted and duplicate-free; second_phase must
    be a subset of first_phase. seed and rep record provenance when the
    sample came from the counter-based generator.
    """

    design: DesignSpec
    first_phase: np.ndarray
    second_phase: np.ndarray
    seed: int | None = None
    rep: int | None = None

    def __post_init__(self) -> None:
        for name, size in (("first_phase", self.design.n1), ("second_phase", self.design.n)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1 or arr.shape[0] != size:
                raise InvalidDesign(f"{name} must have length {size}")
            if arr.size and (arr[0] < 0 or arr[-1] >= self.design.N):
                raise InvalidDesign(f"{name} indices must lie in [0, N)")
            if np.any(np.diff(arr) <= 0):
                raise InvalidDesign(f"{name} must be sorted and duplicate-free")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isin(self.second_phase, self.first_phase)):
            raise InvalidDesign("second_phase must be a subset of first_phase")


@dataclass(frozen=True)
class SampleStatistics:
    """Everything an estimator needs from one two-phase draw.

    Ratios compare second-phase to first-phase statistics (u, v), and
    first-phase statistics to the known z moments (w, a). Variances and
    s_yx use divisor n - 1 (n1 - 1 in the first phase). delta_hat holds
    the second-phase standardized central moments the plug-in weights
    read, on the divisor-n convention and keyed by (p, q, m); they come
    from the function that computes the population table, so a census
    sample reproduces it. c_x_hat or c_z_hat is None when the
    corresponding sample mean is zero.
    """

    n: int
    n1: int
    r: float
    u: float
    v: float
    w: float
    a: float
    mean_y: float
    mean_x: float
    mean_z: float
    mean_x_first: float
    mean_z_first: float
    s2_y: float
    s2_x: float
    s2_z: float
    s_yx: float
    s2_x_first: float
    s2_z_first: float
    c_x_hat: float | None
    c_z_hat: float | None
    delta_hat: Mapping[tuple[int, int, int], float]
    aux: KnownAux


def _check_population(design: DesignSpec, frame: PopulationFrame) -> None:
    """InvalidDesign unless the design's N is the population's size."""
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")


def draw_two_phase(
    frame: PopulationFrame,
    design: DesignSpec,
    seed: int,
    rep: int = 0,
) -> TwoPhaseSample:
    """Draw one two-phase sample, replication `rep` of stream `seed`.

    Matches exactly the draws a simulation run with the same seed would
    produce at the same replication index, which lies in [0, 2**64 - 1).
    """
    _check_population(design, frame)
    if not 0 <= int(rep) < (1 << 64) - 1:
        raise InvalidParameter(f"rep must lie in [0, 2**64 - 1), got {int(rep)}")
    first, second = _kernels.draw_rows(
        design.N, design.n1, design.n, reps=1, seed=seed, rep_lo=rep
    )
    return TwoPhaseSample(
        design=design,
        first_phase=first[0],
        second_phase=second[0],
        seed=int(seed),
        rep=int(rep),
    )


def sample_statistics(
    frame: PopulationFrame,
    sample: TwoPhaseSample,
    aux: KnownAux,
) -> SampleStatistics:
    """Compute the full statistics bundle for one sample.

    The one-row case of the kernels: r, u, v, w and a, the first-phase
    means and variances of x and z, the second-phase ones of x and the
    degeneracy tests come from _kernels.first_phase_rows,
    second_phase_rows and pair_rows on this sample's sets, so they equal
    that draw's entry in stats_rows bit for bit, and so do the plug-in
    weights that estimated_optimum_constants forms from delta_hat. The
    moments only this bundle reports (the second-phase moments of y and
    z, s_yx, delta_hat) come from _kernels.moment_rows, so a census
    sample reproduces population_moments.

    Raises DegenerateSample when a variable that the ratios divide by
    is constant or has zero variance: y, x, z within the second phase,
    or x, z within the first, which the kernels code SKIP_DEGENERATE;
    SingularDenominator when the first-phase mean of x is zero. Data at
    the edge of float64 fails with InvalidParameter naming the first
    variance or d_pqm that is not finite, as population_moments does.
    """
    _check_population(sample.design, frame)
    n1, n = sample.design.n1, sample.design.n

    first = _kernels.first_phase_rows(frame.x, frame.z, sample.first_phase[None])
    s2_x_first = _finite("sample s2_x_first", float(first.s2_x[0]))
    s2_z_first = _finite("sample s2_z_first", float(first.s2_z[0]))
    second = _kernels.second_phase_rows(frame.y, frame.x, frame.z, sample.second_phase[None])
    if second.flags[0] == SKIP_DEGENERATE:
        raise DegenerateSample("a second-phase variable is constant in the sample")
    if first.flags[0] == SKIP_DEGENERATE:
        raise DegenerateSample("a first-phase auxiliary is constant in the sample")
    if first.xbar[0] == 0.0:
        raise SingularDenominator(
            "first-phase mean of x is zero; the mean ratio is undefined"
        )
    pair = _kernels.pair_rows(first, second, np.zeros((1, 1), np.intp), aux.zbar, aux.sz2)

    at = sample.second_phase[None]
    means, sums, d = _kernels.moment_rows(
        frame.y[at], frame.x[at], frame.z[at], _kernels.SAMPLE_TRIPLES
    )
    mean_y, mean_x, mean_z = float(means[0][0]), float(second.xbar[0]), float(means[2][0])
    s2_y = _finite("sample s2_y", float(sums[2, 0, 0][0]) / (n - 1))
    s2_x = _finite("sample s2_x", float(second.s2_x[0]))
    s2_z = _finite("sample s2_z", float(sums[0, 0, 2][0]) / (n - 1))
    delta_hat = dict.fromkeys(_kernels.SECOND_ORDER_TRIPLES, 1.0)
    for triple in _kernels.WEIGHT_TRIPLES:
        delta_hat[triple] = _finite(f"sample {delta_name(triple)}", float(d[triple][0]))

    return SampleStatistics(
        n=n,
        n1=n1,
        r=float(pair.r[0, 0]),
        u=float(pair.u[0, 0]),
        v=float(pair.v[0, 0]),
        w=float(pair.w[0, 0]),
        a=float(pair.a[0, 0]),
        mean_y=mean_y,
        mean_x=mean_x,
        mean_z=mean_z,
        mean_x_first=float(first.xbar[0]),
        mean_z_first=float(first.zbar[0]),
        s2_y=s2_y,
        s2_x=s2_x,
        s2_z=s2_z,
        s_yx=float(sums[1, 1, 0][0]) / (n - 1),
        s2_x_first=s2_x_first,
        s2_z_first=s2_z_first,
        c_x_hat=math.sqrt(s2_x) / mean_x if mean_x != 0.0 else None,
        c_z_hat=math.sqrt(s2_z) / mean_z if mean_z != 0.0 else None,
        delta_hat=delta_hat,
        aux=aux,
    )
