"""First-order variance theory for the correlation estimators.

All results here are large-sample first-order approximations: variances
of transformed estimators come from expanding the transformation around
unit ratios and keeping quadratic terms, and no finite-population
corrections in N are applied. Sample sizes enter only through 1/n and
1/n1.

The design variance of any transformation-class estimator splits into
three pieces: the variance of the plain sample correlation, a quadratic
in the two x-adjustment coefficients scaled by (1/n - 1/n1), and a
quadratic in the two z-adjustment coefficients scaled by 1/n1. Each
quadratic is convex whenever the standardized-moment table is
nondegenerate, so the optimal coefficients solve two independent 2x2
linear systems and the minimized variance has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ._kernels import ZERO_R_TOL, optimum_weights, spread
from .errors import (
    InvalidDesign,
    InvalidParameter,
    SingularDenominator,
    ZeroCorrelation,
)
from .moments import MomentSet, check_float_size


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


def _check_sizes(n: int, n1: int) -> None:
    if not (2 <= n <= n1):
        raise InvalidDesign(f"need 2 <= n <= n1, got n={n}, n1={n1}")
    check_float_size("n1", n1)


def _span_or_raise(kurt: float, skew: float, axis: str) -> float:
    """Excess spread kurt - skew^2 - 1 of one axis, guarded against singularity."""
    span, singular = spread(kurt, skew)
    if singular:
        raise SingularDenominator(
            f"moment table of {axis} is two-point degenerate: "
            f"kurtosis {kurt:g} too close to skewness^2 + 1"
        )
    return span


def _optimum_from_table(
    d: Callable[[int, int, int], float],
    c_x: float,
    c_z: float,
    rho: float,
) -> OptimumConstants:
    """Optimum constants from a standardized-moment table, with typed errors.

    `d` returns standardized central moments; c_x, c_z, rho are the
    coefficients of variation and the correlation on the same footing.
    It serves exact population tables and sample estimates alike, and
    the per-sample kernel runs the same optimum_weights, which keeps the
    plug-in estimators consistent with the theory by construction.
    """
    if abs(rho) < ZERO_R_TOL:
        raise ZeroCorrelation(
            "optimal adjustment weights are undefined at zero correlation"
        )
    skew_x, kurt_x = d(0, 3, 0), d(0, 4, 0)
    skew_z, kurt_z = d(0, 0, 3), d(0, 0, 4)
    span_x = _span_or_raise(kurt_x, skew_x, "x")
    span_z = _span_or_raise(kurt_z, skew_z, "z")
    slopes, weights = optimum_weights(d, c_x, c_z, rho, span_x, span_z)
    return OptimumConstants(*slopes, *weights)


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


def _scaled_slopes(m: MomentSet) -> tuple[float, float, float, float]:
    """Slopes premultiplied by rho, finite for every rho including 0."""
    rho = m.require("rho_yx")
    sa = (2.0 * m.d(1, 2, 0) - rho * (m.d(2, 1, 0) + m.d(0, 3, 0))) * m.require("c_x")
    sb = 2.0 * m.d(1, 3, 0) - rho * (m.d(2, 2, 0) + m.d(0, 4, 0))
    sd = (2.0 * m.d(1, 1, 1) - rho * (m.d(2, 0, 1) + m.d(0, 2, 1))) * m.require("c_z")
    sf = 2.0 * m.d(1, 1, 2) - rho * (m.d(2, 0, 2) + m.d(0, 2, 2))
    return sa, sb, sd, sf


def _var_quad(m: MomentSet, n: int, n1: int, e: Sequence[float]) -> float:
    """Design variance with effective adjustment weights e (rho-scaled).

    e holds (rho * weight) for each of the four ratio adjustments, the
    parametrization under which the variance is a plain quadratic with
    no rho in its coefficients.
    """
    _check_sizes(n, n1)
    e1, e2, e3, e4 = (float(v) for v in e)
    c_x = m.require("c_x")
    c_z = m.require("c_z")
    sa, sb, sd, sf = _scaled_slopes(m)
    skew_x, kurt_x = m.d(0, 3, 0), m.d(0, 4, 0)
    skew_z, kurt_z = m.d(0, 0, 3), m.d(0, 0, 4)
    block_x = (
        e1 * e1 * c_x * c_x
        + e2 * e2 * (kurt_x - 1.0)
        + 2.0 * e1 * e2 * c_x * skew_x
        + e1 * sa
        + e2 * sb
    )
    block_z = (
        e3 * e3 * c_z * c_z
        + e4 * e4 * (kurt_z - 1.0)
        + 2.0 * e3 * e4 * c_z * skew_z
        + e3 * sd
        + e4 * sf
    )
    return var_r(m, n) + (1.0 / n - 1.0 / n1) * block_x + block_z / n1


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

    The reductions are sums of squares over positive denominators, so
    they are nonnegative whenever the moment table is nondegenerate;
    that makes the no-info / x-info / x-and-z-info variance ordering
    structural rather than numerical.
    """
    _check_sizes(n, n1)
    if abs(m.require("rho_yx")) < ZERO_R_TOL:
        raise ZeroCorrelation(
            "minimized variances are undefined at zero correlation: the "
            "optimal weights diverge"
        )
    c_x = m.require("c_x")
    c_z = m.require("c_z")
    skew_x, kurt_x = m.d(0, 3, 0), m.d(0, 4, 0)
    skew_z, kurt_z = m.d(0, 0, 3), m.d(0, 0, 4)
    span_x = _span_or_raise(kurt_x, skew_x, "x")
    span_z = _span_or_raise(kurt_z, skew_z, "z")
    sa, sb, sd, sf = _scaled_slopes(m)
    base = var_r(m, n)
    red_x = (1.0 / n - 1.0 / n1) * (
        sa * sa / (4.0 * c_x * c_x)
        + ((sa / c_x) * skew_x - sb) ** 2 / (4.0 * span_x)
    )
    red_z = (
        sd * sd / (4.0 * c_z * c_z)
        + ((sd / c_z) * skew_z - sf) ** 2 / (4.0 * span_z)
    ) / n1
    return base, red_x, red_z


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

    This is the z reduction of the closed form, min_var_hd - min_var_td
    up to the rounding of that subtraction.
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

    When `published` supplies reference PRE values (keys among "r",
    "hd", "td"), each is compared against the computed value and any
    disagreement beyond half a point is spelled out in the notes. The
    published numbers are carried through verbatim either way.
    """
    base = var_r(m, n)
    hd = min_var_hd(m, n, n1)
    td = min_var_td(m, n, n1)
    gap = variance_gap(m, n, n1)
    pre_hd = pre(base, hd)
    pre_td = pre(base, td)
    notes = list(m.notes)
    notes.append(
        "first-order approximation: no finite-population correction, "
        "terms beyond 1/n dropped"
    )
    if published is not None:
        unknown = sorted(set(published) - set(_PUBLISHED_KEYS))
        if unknown:
            raise InvalidParameter(f"unknown published PRE keys: {unknown}")
        computed = {"r": 100.0, "hd": pre_hd, "td": pre_td}
        for key in _PUBLISHED_KEYS:
            if key not in published:
                continue
            pub = float(published[key])
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
