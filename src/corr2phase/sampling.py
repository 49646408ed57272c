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
    DegenerateSample,
    InvalidDesign,
    InvalidParameter,
    NonPositiveVariance,
    SingularDenominator,
)
from .moments import PopulationFrame, _finite, delta_name


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
        z = frame.z
        return cls(zbar=float(np.mean(z)), sz2=float(np.var(z, ddof=1)))


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


def draw_two_phase(
    frame: PopulationFrame,
    design: DesignSpec,
    seed: int,
    rep: int = 0,
) -> TwoPhaseSample:
    """Draw one two-phase sample, replication `rep` of stream `seed`.

    Matches exactly the draws a simulation run with the same seed would
    produce at the same replication index.
    """
    if design.N != frame.N:
        raise InvalidDesign(f"design N={design.N} but population has {frame.N} units")
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

    The one-row case of the kernels: _kernels.first_phase_rows on the
    first-phase set, with unit known z moments so that its w and a
    columns hold the raw first-phase mean and variance of z, and
    _kernels.moment_rows on the second-phase set. So r, u, v, w, a and
    the plug-in weights equal a stats_rows row bit for bit, and a census
    sample reproduces population_moments.

    Raises DegenerateSample when any variance that the ratios divide by
    is zero: y, x, z within the second phase, or x, z within the first;
    SingularDenominator when the first-phase mean of x is zero. Data at
    the edge of float64 fails with InvalidParameter naming the first
    variance or d_pqm that is not finite, as population_moments does.
    """
    if sample.design.N != frame.N:
        raise InvalidDesign("sample and population disagree on N")
    n1, n = sample.design.n1, sample.design.n

    first_row, _ = _kernels.first_phase_rows(
        frame.x, frame.z, sample.first_phase[None], 1.0, 1.0
    )
    xbar1, s2_x_first, zbar1, s2_z_first = (float(v) for v in first_row[0])
    _finite("sample s2_x_first", s2_x_first)
    _finite("sample s2_z_first", s2_z_first)

    second = sample.second_phase[None]
    means, sums, d = _kernels.moment_rows(
        frame.y[second], frame.x[second], frame.z[second], _kernels.SAMPLE_TRIPLES
    )
    ybar, xbar, zbar = (float(mean[0]) for mean in means)
    m200, m020, m002 = (float(sums[t][0]) for t in _kernels.SECOND_ORDER_TRIPLES)
    if min(m200, m020, m002) <= 0.0:
        raise DegenerateSample("a second-phase variable is constant in the sample")
    if min(s2_x_first, s2_z_first) <= 0.0:
        raise DegenerateSample("a first-phase auxiliary is constant in the sample")
    if xbar1 == 0.0:
        raise SingularDenominator(
            "first-phase mean of x is zero; the mean ratio is undefined"
        )

    s2_y = _finite("sample s2_y", m200 / (n - 1))
    s2_x = _finite("sample s2_x", m020 / (n - 1))
    s2_z = _finite("sample s2_z", m002 / (n - 1))
    s_yx = float(sums[1, 1, 0][0]) / (n - 1)
    r = s_yx / math.sqrt(s2_y * s2_x)

    delta_hat = dict.fromkeys(_kernels.SECOND_ORDER_TRIPLES, 1.0)
    for triple in _kernels.WEIGHT_TRIPLES:
        delta_hat[triple] = _finite(f"sample {delta_name(triple)}", float(d[triple][0]))

    return SampleStatistics(
        n=n,
        n1=n1,
        r=r,
        u=xbar / xbar1,
        v=s2_x / s2_x_first,
        w=zbar1 / aux.zbar,
        a=s2_z_first / aux.sz2,
        mean_y=ybar,
        mean_x=xbar,
        mean_z=zbar,
        mean_x_first=xbar1,
        mean_z_first=zbar1,
        s2_y=s2_y,
        s2_x=s2_x,
        s2_z=s2_z,
        s_yx=s_yx,
        s2_x_first=s2_x_first,
        s2_z_first=s2_z_first,
        c_x_hat=math.sqrt(s2_x) / xbar if xbar != 0.0 else None,
        c_z_hat=math.sqrt(s2_z) / zbar if zbar != 0.0 else None,
        delta_hat=delta_hat,
        aux=aux,
    )
