"""Correlation estimators for two-phase samples.

Every estimator starts from the second-phase sample correlation r and
adjusts it with up to four ratio comparisons:

* u: second-phase to first-phase mean of x,
* v: second-phase to first-phase variance of x,
* w: first-phase mean of z to its known population mean,
* a: first-phase variance of z to its known population variance.

Multiplicative (power), linear, additive, and rational adjustment
shapes are provided, plus plug-in variants that estimate the optimal
adjustment weights from the same sample. At unit ratios every variant
collapses to r exactly, because each adjustment factor is then the
float constant 1 and each adjustment term the float constant 0.

The formulas are written once, in evaluate_rows, which works on named
columns of per-pair statistics (_kernels.PairStats) that numpy
broadcasts; the arithmetic is elementwise, so a pair's value has the
same bits whatever the shapes around it. simulate and enumerate_exact
call it on kernel columns; estimate() calls it on the one pair of a
single sample and turns a skipped pair into the matching error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics
from ._kernels import SINGULAR_RTOL, PairStats
from .errors import (
    SKIP_DENOMINATOR,
    SKIP_NONFINITE,
    SKIP_NONPOSITIVE,
    SKIP_OK,
    SKIP_PLUGIN,
    SKIPS,
    InvalidParameter,
    MissingParameter,
    ParseError,
    ZeroMean,
)
from .moments import MomentSet
from .sampling import SampleStatistics

# kind -> number of user constants
_ARITY = {
    "sample-r": 0,
    "chain-ratio": 0,
    "gen-power": 4,
    "h-linear": 2,
    "h-power": 2,
    "t-linear": 4,
    "t-power": 4,
    "difference": 4,
    "td-star:power": 0,
    "td-star:ratio": 0,
    "td-star:linear": 0,
    "td-star:inverse": 0,
}

ESTIMATOR_KINDS: tuple[str, ...] = tuple(_ARITY)

# Parameter-free kinds, the default set for one-shot estimation.
PARAMETER_FREE_KINDS: tuple[str, ...] = tuple(k for k, v in _ARITY.items() if v == 0)

_TDSTAR_VARIANTS = {
    "power": "power",
    "product": "power",  # accepted alias
    "ratio": "ratio",
    "linear": "linear",
    "inverse": "inverse",
}


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator kind plus its user constants, if the kind takes any."""

    kind: str
    constants: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise InvalidParameter(f"unknown estimator kind {self.kind!r}")
        values = tuple(float(c) for c in self.constants)
        if len(values) != _ARITY[self.kind]:
            raise InvalidParameter(
                f"{self.kind} takes {_ARITY[self.kind]} constants, "
                f"got {len(values)}"
            )
        if any(not np.isfinite(c) for c in values):
            raise InvalidParameter(f"{self.kind} constants must be finite")
        object.__setattr__(self, "constants", values)

    @property
    def needs_plugin(self) -> bool:
        return self.kind.startswith("td-star:")

    def label(self) -> str:
        if not self.constants:
            return self.kind
        return self.kind + ":" + ",".join(repr(c) for c in self.constants)


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse an estimator label like 't-power:0.5,0.2,-0.1,0.3'.

    Inverse of EstimatorSpec.label(). 'td-star:product' is accepted for
    'td-star:power'.
    """
    body = text.strip()
    if body.startswith("td-star"):
        head, sep, variant = body.partition(":")
        if head != "td-star" or not sep or variant not in _TDSTAR_VARIANTS:
            raise ParseError(
                f"bad plug-in estimator {text!r}; expected td-star:"
                f"{{power|product|ratio|linear|inverse}}"
            )
        return EstimatorSpec(kind=f"td-star:{_TDSTAR_VARIANTS[variant]}")
    head, sep, rest = body.partition(":")
    if head not in _ARITY:
        raise ParseError(f"unknown estimator {head!r}")
    arity = _ARITY[head]
    if arity == 0:
        if sep:
            raise ParseError(f"{head} takes no constants, got {rest!r}")
        return EstimatorSpec(kind=head)
    if not sep or not rest:
        raise ParseError(f"{head} needs {arity} comma-separated constants")
    parts = rest.split(",")
    if len(parts) != arity:
        raise ParseError(f"{head} needs {arity} constants, got {len(parts)}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad constant in {text!r}: {exc}") from None
    if not np.isfinite(values).all():
        raise ParseError(f"bad constant in {text!r}: constants must be finite")
    return EstimatorSpec(kind=head, constants=values)


def estimated_optimum_constants(stats: SampleStatistics) -> analytics.OptimumConstants:
    """Plug-in optimum constants from one sample's own moment estimates.

    Uses the same closed forms as the population-level optimum, with
    every population quantity replaced by its second-phase estimate.
    Raises ZeroMean when a sample coefficient of variation is undefined,
    ZeroCorrelation when r is numerically zero, SingularDenominator when
    a sample moment table is two-point degenerate or a weight is not finite.
    """
    if stats.c_x_hat is None:
        raise ZeroMean("sample mean of x is zero; plug-in constants undefined")
    if stats.c_z_hat is None:
        raise ZeroMean("sample mean of z is zero; plug-in constants undefined")

    def d(p: int, q: int, m: int) -> float:
        try:
            return stats.delta_hat[(p, q, m)]
        except KeyError:
            raise MissingParameter(
                f"sample moment d_{p}{q}{m} missing from statistics"
            ) from None

    return analytics._optimum_from_table(d, stats.c_x_hat, stats.c_z_hat, stats.r)


def optimal_estimator(kind: str, m: MomentSet) -> EstimatorSpec:
    """Estimator of the given kind with population-optimal constants.

    Power and linear kinds take the optimal weights directly; the
    additive kind takes them scaled by the correlation, which is where
    its first-order optimum sits.
    """
    opt = analytics.optimum_constants(m)
    w1, w2, w3, w4 = opt.weights()
    if kind in ("t-linear", "t-power", "gen-power"):
        return EstimatorSpec(kind=kind, constants=(w1, w2, w3, w4))
    if kind in ("h-linear", "h-power"):
        return EstimatorSpec(kind=kind, constants=(w1, w2))
    if kind == "difference":
        rho = m.require("rho_yx")
        return EstimatorSpec(
            kind=kind, constants=(rho * w1, rho * w2, rho * w3, rho * w4)
        )
    raise InvalidParameter(f"{kind!r} has no free constants to optimize")


def evaluate_rows(spec: EstimatorSpec, stats: PairStats) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one estimator on pair statistics: the package's one evaluator.

    stats holds the columns r, u, v, w, a and the plug-in weights, which
    only the td-star kinds read, in shapes that broadcast to that of its
    skip codes stats.flags (_kernels.PairStats). simulate and
    enumerate_exact pass kernel columns, and estimate() is the one-pair
    case. Returns flat (values, codes) in the C order of the flags: codes
    starts from the flags, with SKIP_PLUGIN cleared for fixed-constant
    kinds, and values is NaN where codes is not SKIP_OK.
    """
    codes = np.array(stats.flags, np.uint8)
    if spec.needs_plugin:
        weights = stats.alpha, stats.beta, stats.gamma, stats.delta
    else:
        codes[codes == SKIP_PLUGIN] = SKIP_OK
        weights = spec.constants

    r = stats.r
    # zip(weights, ratios) pairs the two h-kind constants with u and v only
    ratios = stats.u, stats.v, stats.w, stats.a
    kind = spec.kind

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "sample-r":
            values = r.copy()
        elif kind == "chain-ratio":
            u, v, w, a = ratios
            nonpos = ~(u > 0.0) | ~(v > 0.0) | ~(w > 0.0) | ~(a > 0.0)
            codes[(codes == 0) & nonpos] = SKIP_NONPOSITIVE
            values = r / u / w / v / a
        elif kind.endswith("power"):
            values = r.copy()
            for base, e in zip(ratios, weights):
                if np.ndim(e) == 0 and e == 0.0:
                    continue
                live = np.not_equal(e, 0.0)  # a nonzero constant is live everywhere
                codes[(codes == 0) & live & (base <= 0.0)] = SKIP_NONPOSITIVE
                values = values * np.where(live, base**np.asarray(e), 1.0)
        else:
            terms = [c * (x - 1.0) for c, x in zip(weights, ratios)]
            if kind == "difference":
                values = sum(terms, r)
            elif kind in ("td-star:ratio", "td-star:inverse"):
                ta, tb, tg, td = terms
                under = (tb, td) if kind == "td-star:ratio" else terms
                den, scale = 1.0, 1.0
                for t in under:
                    den = den - t
                    scale = scale + np.abs(t)
                bad = (den <= 0.0) | (den <= SINGULAR_RTOL * scale)
                codes[(codes == 0) & bad] = SKIP_DENOMINATOR
                if kind == "td-star:ratio":
                    values = r * (1.0 + ta + tg) / den
                else:
                    values = r / den
            else:  # t-linear, h-linear, td-star:linear
                values = r * sum(terms, 1.0)

    keep = codes == SKIP_OK
    bad_value = keep & ~np.isfinite(values)
    codes[bad_value] = SKIP_NONFINITE
    values[codes != SKIP_OK] = np.nan
    return values.reshape(-1), codes.reshape(-1)


def estimate(spec: EstimatorSpec, stats: SampleStatistics) -> float:
    """Evaluate one estimator on one sample's statistics.

    The one-pair case of evaluate_rows: a skipped pair raises the error
    that errors.SKIPS names for its code (NonPositiveRatio,
    SingularDenominator or NonFiniteEstimate). Plug-in kinds first form
    their constants with estimated_optimum_constants and pass on its errors.
    """
    columns = (stats.r, stats.u, stats.v, stats.w, stats.a)
    columns += estimated_optimum_constants(stats).weights() if spec.needs_plugin else (0.0,) * 4
    one = PairStats(*(np.full((1, 1), c) for c in columns), flags=np.zeros((1, 1), np.uint8))
    values, codes = evaluate_rows(spec, one)
    if codes[0] != SKIP_OK:
        skip = SKIPS[int(codes[0])]
        raise skip.error(f"{spec.label()}: {skip.reason}")
    return float(values[0])
