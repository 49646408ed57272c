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
    first-phase statistics to the known z moments (w, a). delta_hat
    holds second-phase standardized central moments on the divisor-n
    convention, keyed by (p, q, m). c_x_hat or c_z_hat is None when the
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


@np.errstate(over="ignore", invalid="ignore")
def sample_statistics(
    frame: PopulationFrame,
    sample: TwoPhaseSample,
    aux: KnownAux,
) -> SampleStatistics:
    """Compute the full statistics bundle for one sample.

    Raises DegenerateSample when any variance that the ratios divide by
    is zero: y, x, z within the second phase, or x, z within the first.
    Data at the edge of float64 fails with InvalidParameter naming the
    first variance or d_pqm that is not finite, as population_moments
    does.
    """
    if sample.design.N != frame.N:
        raise InvalidDesign("sample and population disagree on N")
    n1, n = sample.design.n1, sample.design.n

    x1 = frame.x[sample.first_phase]
    z1 = frame.z[sample.first_phase]
    xbar1 = float(np.mean(x1))
    zbar1 = float(np.mean(z1))
    s2_x_first = float(np.sum((x1 - xbar1) ** 2) / (n1 - 1))
    s2_z_first = float(np.sum((z1 - zbar1) ** 2) / (n1 - 1))
    _finite("sample s2_x_first", s2_x_first)
    _finite("sample s2_z_first", s2_z_first)

    ys = frame.y[sample.second_phase]
    xs = frame.x[sample.second_phase]
    zs = frame.z[sample.second_phase]
    ybar, xbar, zbar = (float(np.mean(arr)) for arr in (ys, xs, zs))
    dy, dx, dz = ys - ybar, xs - xbar, zs - zbar

    m200 = float(np.sum(dy * dy))
    m020 = float(np.sum(dx * dx))
    m002 = float(np.sum(dz * dz))
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
    s_yx = float(np.sum(dy * dx)) / (n - 1)
    r = s_yx / math.sqrt(s2_y * s2_x)

    sdy = math.sqrt(m200 / n)
    sdx = math.sqrt(m020 / n)
    sdz = math.sqrt(m002 / n)
    delta_hat: dict[tuple[int, int, int], float] = {
        (2, 0, 0): 1.0,
        (0, 2, 0): 1.0,
        (0, 0, 2): 1.0,
    }
    for p, q, m in _kernels.WEIGHT_TRIPLES:
        mu_hat = float(np.sum(dy**p * dx**q * dz**m)) / n
        try:
            value = mu_hat / (sdy**p * sdx**q * sdz**m)
        except (OverflowError, ZeroDivisionError):  # the scale left float64's range
            value = math.nan
        delta_hat[(p, q, m)] = _finite(f"sample {delta_name((p, q, m))}", value)

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
