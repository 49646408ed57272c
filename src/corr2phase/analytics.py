"""First-order variance theory for the correlation estimators.

All results here are large-sample first-order approximations: variances
of transformed estimators come from expanding the transformation around
unit ratios and keeping quadratic terms, and no finite-population
corrections in N are applied. Sample sizes enter only through 1/n and
1/n1.

The design variance of any transformation-class estimator splits into
three pieces, all formed in _var_parts: the variance of the plain
sample correlation, a quadratic in the two x-adjustment coefficients
scaled by (1/n - 1/n1), and a quadratic in the two z-adjustment
coefficients scaled by 1/n1. Each quadratic is convex whenever the
standardized-moment table is nondegenerate, so the optimal coefficients
solve two independent 2x2 linear systems. _kernels.optimum_weights
solves them and says when the solution cannot be used, for the
per-sample kernel and here alike; _optimum_from_table raises that rule
as typed errors. The minimized variance is the class variance at those
optimum weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._kernels import optimum_weights, scaled_slopes
from .errors import (
    InvalidDesign,
    InvalidParameter,
    SingularDenominator,
    ZeroCorrelation,
)
from .moments import MomentSet, check_float_size, finite_number


@dataclass(frozen=True)
class OptimumConstants:
    """Variance slopes and the optimal adjustment weights they imply.

    slope_* are the coefficients of the terms of the design variance
    that are linear in the adjustment weights; weight_* are the weights
    that minimize it. Power-class and linear-class estimators share
    these weights because only first derivatives at unit ratios enter
    the first-order variance.
    """

    slope_mean_x: float
    slope_var_x: float
    slope_mean_z: float
    slope_var_z: float
    weight_mean_x: float
    weight_var_x: float
    weight_mean_z: float
    weight_var_z: float

    def weights(self) -> tuple[float, float, float, float]:
        return (
            self.weight_mean_x,
            self.weight_var_x,
            self.weight_mean_z,
            self.weight_var_z,
        )


@dataclass(frozen=True)
class VarianceReport:
    """Computed efficiency summary, optionally against published values."""

    n: int
    n1: int
    var_r: float
    var_hd_min: float
    var_td_min: float
    gap: float
    pre_hd: float
    pre_td: float
    published: Mapping[str, float] | None
    interpretation_notes: tuple[str, ...]


def _check_sizes(m: MomentSet, n: int, n1: int) -> None:
    if not (2 <= n <= n1):
        raise InvalidDesign(f"need 2 <= n <= n1, got n={n}, n1={n1}")
    check_float_size("n", n)
    check_float_size("n1", n1)
    if m.N is not None and n1 > m.N:
        raise InvalidDesign(f"need n1 <= N, got n1={n1}, N={m.N}")


def _optimum_from_table(
    d: Callable[[int, int, int], float],
    c_x: float,
    c_z: float,
    rho: float,
) -> OptimumConstants:
    """Optimum constants from a standardized-moment table, with typed errors.

    `d` returns standardized central moments; c_x, c_z, rho are the
    coefficients of variation and the correlation on the same footing.
    It serves exact population tables and sample estimates alike. The
    constants and the rule for when they are unusable come from
    _kernels.optimum_weights, the function that the per-sample kernel
    runs, so the plug-in estimators agree with the theory by
    construction; each of its masks becomes a typed error, zero
    correlation first, then a two-point x table, a two-point z table and
    a non-finite weight. The inputs go in as float64 scalars, so a zero
    or an overflow ends in a mask, not in a ZeroDivisionError.
    """
    slopes, weights, zero_r, two_point_x, two_point_z, nonfinite = optimum_weights(
        d, np.float64(c_x), np.float64(c_z), np.float64(rho)
    )
    if zero_r:
        raise ZeroCorrelation(
            "optimal adjustment weights are undefined at zero correlation"
        )
    for axis, two_point, kurt in (("x", two_point_x, (0, 4, 0)), ("z", two_point_z, (0, 0, 4))):
        if two_point:
            raise SingularDenominator(
                f"moment table of {axis} is two-point degenerate: "
                f"kurtosis {d(*kurt):g} too close to skewness^2 + 1"
            )
    if nonfinite:
        raise SingularDenominator("optimal adjustment weights are not finite")
    return OptimumConstants(*map(float, slopes + weights))


def optimum_constants(m: MomentSet) -> OptimumConstants:
    """Population optimum constants from an exact moment table."""
    return _optimum_from_table(
        m.d, m.require("c_x"), m.require("c_z"), m.require("rho_yx")
    )


def var_r(m: MomentSet, n: int) -> float:
    """First-order design variance of the plain sample correlation.

    Written in a form with no division by rho, so a zero correlation is
    legal and gives d_220 / n.
    """
    if n < 2:
        raise InvalidDesign(f"need n >= 2, got n={n}")
    check_float_size("n", n)
    rho = m.require("rho_yx")
    quartic = m.d(0, 4, 0) + m.d(4, 0, 0) + 2.0 * m.d(2, 2, 0)
    cubic = m.d(1, 3, 0) + m.d(3, 1, 0)
    return (m.d(2, 2, 0) + 0.25 * rho * rho * quartic - rho * cubic) / n


def _axis_quad(e_mean, e_var, c, skew, kurt, slope_mean, slope_var):
    """One axis's quadratic in its effective weights (e_mean, e_var)."""
    return (
        e_mean * e_mean * c * c
        + e_var * e_var * (kurt - 1.0)
        + 2.0 * e_mean * e_var * c * skew
        + e_mean * slope_mean
        + e_var * slope_var
    )


def _var_parts(
    m: MomentSet, n: int, n1: int, e: Sequence[float]
) -> tuple[float, float, float]:
    """(var_r, x part, z part) of the design variance at effective weights e.

    e holds (rho * weight) for each of the four ratio adjustments, the
    parametrization under which the variance is a plain quadratic with
    no division by rho. The x part carries the design factor (1/n -
    1/n1), the z part 1/n1. The caller checks the sizes.
    """
    e1, e2, e3, e4 = (float(v) for v in e)
    c_x = m.require("c_x")
    c_z = m.require("c_z")
    sa, sb, sd, sf = scaled_slopes(m.d, c_x, c_z, m.require("rho_yx"))
    quad_x = _axis_quad(e1, e2, c_x, m.d(0, 3, 0), m.d(0, 4, 0), sa, sb)
    quad_z = _axis_quad(e3, e4, c_z, m.d(0, 0, 3), m.d(0, 0, 4), sd, sf)
    return var_r(m, n), (1.0 / n - 1.0 / n1) * quad_x, quad_z / n1


def _var_quad(m: MomentSet, n: int, n1: int, e: Sequence[float]) -> float:
    """Design variance with effective adjustment weights e (rho-scaled)."""
    _check_sizes(m, n, n1)
    return sum(_var_parts(m, n, n1, e))


def var_t_class(
    m: MomentSet, n: int, n1: int, weights: Sequence[float]
) -> float:
    """First-order variance of a four-weight transformation estimator.

    weights = (mean_x, var_x, mean_z, var_z) adjustment weights, either
    power exponents or linear coefficients; both classes share this
    variance because only first derivatives survive at first order.
    """
    w1, w2, w3, w4 = (float(v) for v in weights)
    rho = m.require("rho_yx")
    return _var_quad(m, n, n1, (rho * w1, rho * w2, rho * w3, rho * w4))


def var_h_class(m: MomentSet, n: int, n1: int, weights: Sequence[float]) -> float:
    """Variance of a two-weight estimator adjusting in x only."""
    w1, w2 = (float(v) for v in weights)
    rho = m.require("rho_yx")
    return _var_quad(m, n, n1, (rho * w1, rho * w2, 0.0, 0.0))


def var_difference_class(
    m: MomentSet, n: int, n1: int, constants: Sequence[float]
) -> float:
    """Variance of the additive-adjustment estimator.

    Additive constants act like rho-scaled weights, so this class
    reaches the same minimum but keeps a meaningful variance at zero
    correlation.
    """
    return _var_quad(m, n, n1, tuple(float(v) for v in constants))


def _variance_components(m: MomentSet, n: int, n1: int) -> tuple[float, float, float]:
    """(base, x-reduction, z-reduction) of the minimized variance.

    The parts of var_t_class at the optimum weights, the x and z parts
    negated, so the minimized variances equal var_t_class and
    var_h_class at optimum_constants bit for bit. Each reduction is the
    drop of a convex quadratic to its minimum, so it is nonnegative up
    to rounding whenever the moment table is nondegenerate.
    """
    _check_sizes(m, n, n1)
    rho = m.require("rho_yx")
    e = [rho * w for w in optimum_constants(m).weights()]
    base, part_x, part_z = _var_parts(m, n, n1, e)
    return base, 0.0 - part_x, 0.0 - part_z  # a zero reduction is +0.0, not -0.0


def min_var_hd(m: MomentSet, n: int, n1: int) -> float:
    """Minimized variance using x information only."""
    base, red_x, _ = _variance_components(m, n, n1)
    return base - red_x


def min_var_td(m: MomentSet, n: int, n1: int) -> float:
    """Minimized variance using both x and the known z moments."""
    base, red_x, red_z = _variance_components(m, n, n1)
    return (base - red_x) - red_z


def variance_gap(m: MomentSet, n: int, n1: int) -> float:
    """How much the known z moments lower the minimized variance.

    This is the z reduction, min_var_hd - min_var_td up to the rounding
    of that subtraction.
    """
    return _variance_components(m, n, n1)[2]


def pre(var_base: float, var_other: float) -> float:
    """Percent relative efficiency of `other` against `base`: 100 * base/other."""
    if not (math.isfinite(var_base) and math.isfinite(var_other)):
        raise SingularDenominator("efficiency needs finite variances")
    if var_other <= 0.0:
        raise SingularDenominator("efficiency undefined: comparison variance <= 0")
    return 100.0 * var_base / var_other


_PUBLISHED_KEYS = ("r", "hd", "td")


def efficiency_report(
    m: MomentSet,
    n: int,
    n1: int,
    published: Mapping[str, float] | None = None,
) -> VarianceReport:
    """Full efficiency summary at the design (n, n1).

    When `published` supplies reference PRE values (a mapping from keys
    among "r", "hd", "td" to finite numbers, else InvalidParameter),
    each is compared against the computed value and any disagreement
    beyond half a point is spelled out in the notes. The published
    numbers are carried through verbatim either way.
    """
    base, red_x, gap = _variance_components(m, n, n1)
    hd = base - red_x
    td = hd - gap
    pre_hd = pre(base, hd)
    pre_td = pre(base, td)
    notes = list(m.notes)
    notes.append(
        "first-order approximation: no finite-population correction, "
        "terms beyond 1/n dropped"
    )
    if published is not None:
        if not isinstance(published, Mapping):
            raise InvalidParameter(
                f"published PRE values must be an object of numbers, got {published!r}"
            )
        unknown = sorted(set(published) - set(_PUBLISHED_KEYS))
        if unknown:
            raise InvalidParameter(f"unknown published PRE keys: {unknown}")
        computed = {"r": 100.0, "hd": pre_hd, "td": pre_td}
        for key in _PUBLISHED_KEYS:
            if key not in published:
                continue
            pub = finite_number(f"published PRE[{key}]", published[key])
            comp = computed[key]
            diff = comp - pub
            if abs(diff) > 0.5:
                notes.append(
                    f"published PRE[{key}]={pub:g} is not reproducible from "
                    f"the supplied moment table: computed {comp:.3f} "
                    f"(difference {diff:+.3f})"
                )
            else:
                notes.append(
                    f"published PRE[{key}]={pub:g} matches computed {comp:.3f}"
                )
    return VarianceReport(
        n=n,
        n1=n1,
        var_r=base,
        var_hd_min=hd,
        var_td_min=td,
        gap=gap,
        pre_hd=pre_hd,
        pre_td=pre_td,
        published=dict(published) if published is not None else None,
        interpretation_notes=tuple(notes),
    )
