"""Population structures and central-moment tables.

Two divisor conventions coexist on purpose and must not be mixed up:

* variances and covariances written S2_* / S_yx use divisor N - 1;
* central product moments mu_pqm use divisor N.

Standardized moments d_pqm = mu_pqm / (mu_200^(p/2) mu_020^(q/2)
mu_002^(m/2)) are dimensionless, so the N vs N - 1 choice cancels out of
them, but it does matter for the variances and the coefficients of
variation C_* = S_* / mean_*.

population_moments takes the means, the sums of products and the d_pqm
from _kernels.moment_rows, the one function that also computes them for
every sample. It divides the sums by N - 1 for S2_* and the covariances,
and forms each correlation from those sums, s_ab / sqrt(S2_a S2_b),
never from d_110 and its kin, whose ratio can round past 1.

Exponent order is (p, q, m) = (y, x, z) everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import _kernels
from .errors import (
    DegenerateVariable,
    InvalidParameter,
    MissingParameter,
    NonPositiveVariance,
    ZeroMean,
)

# Triples (p, q, m) tracked by a full MomentSet. The first six are
# identities or plain correlations; the rest feed the variance formulas.
DELTA_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (2, 0, 0),
    (0, 2, 0),
    (0, 0, 2),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (3, 0, 0),
    (0, 3, 0),
    (0, 0, 3),
    (4, 0, 0),
    (0, 4, 0),
    (0, 0, 4),
    (2, 1, 0),
    (1, 2, 0),
    (1, 3, 0),
    (3, 1, 0),
    (2, 2, 0),
    (2, 0, 1),
    (0, 2, 1),
    (1, 1, 1),
    (0, 1, 2),
    (1, 0, 2),
    (1, 1, 2),
    (2, 0, 2),
    (0, 2, 2),
)

_IDENTITY_TRIPLES = _kernels.SECOND_ORDER_TRIPLES
_TABLE_TRIPLES = tuple(t for t in DELTA_TRIPLES if t not in _IDENTITY_TRIPLES)

_TRIPLE_NAMES = {t: f"d_{t[0]}{t[1]}{t[2]}" for t in DELTA_TRIPLES}
_NAME_TRIPLES = {v: k for k, v in _TRIPLE_NAMES.items()}


def delta_name(triple: tuple[int, int, int]) -> str:
    """Return the flat key used for a standardized moment, e.g. d_220."""
    p, q, m = triple
    return f"d_{p}{q}{m}"


@dataclass(frozen=True)
class PopulationFrame:
    """A complete finite population of (y, x, z) triples.

    y is the study variable, x the auxiliary observed in both phases,
    z the second auxiliary whose population mean and variance are known.
    Arrays are coerced to float64, must be finite, have equal length
    N >= 4, and each variable must actually vary.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("y", "x", "z"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise InvalidParameter(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise InvalidParameter(f"{name} contains non-finite values")
            arrays[name] = arr
        lengths = {a.shape[0] for a in arrays.values()}
        if len(lengths) != 1:
            raise InvalidParameter("y, x, z must have equal length")
        size = lengths.pop()
        if size < 4:
            raise InvalidParameter(f"population needs at least 4 units, got {size}")
        for name, arr in arrays.items():
            if np.min(arr) == np.max(arr):
                raise DegenerateVariable(f"{name} is constant across the population")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return int(self.y.shape[0])


@dataclass(frozen=True)
class MomentSet:
    """Standardized moment table plus whatever scale information is known.

    delta maps (p, q, m) to d_pqm. Scale fields are optional because a
    table can come from a parameter file that never mentions means. The
    require() helper converts a missing field into the right error.
    """

    delta: Mapping[tuple[int, int, int], float]
    N: int | None = None
    mean_y: float | None = None
    mean_x: float | None = None
    mean_z: float | None = None
    s2_y: float | None = None
    s2_x: float | None = None
    s2_z: float | None = None
    c_y: float | None = None
    c_x: float | None = None
    c_z: float | None = None
    rho_yx: float | None = None
    rho_xz: float | None = None
    rho_yz: float | None = None
    notes: tuple[str, ...] = field(default=())

    def d(self, p: int, q: int, m: int) -> float:
        """Look up d_pqm, raising MissingParameter if absent."""
        try:
            return float(self.delta[(p, q, m)])
        except KeyError:
            raise MissingParameter(
                f"{delta_name((p, q, m))} is required but was not supplied"
            ) from None

    def has(self, p: int, q: int, m: int) -> bool:
        return (p, q, m) in self.delta

    def require(self, name: str) -> float:
        """Fetch a scalar field, raising a specific error when unavailable."""
        value = getattr(self, name)
        if value is not None:
            return float(value)
        if name.startswith("c_"):
            mean = getattr(self, "mean_" + name[2:])
            if mean == 0.0:
                raise ZeroMean(
                    f"coefficient of variation {name} is undefined: the mean is zero"
                )
        raise MissingParameter(f"{name} is required but was not supplied")

    def with_notes(self, *extra: str) -> "MomentSet":
        return replace(self, notes=self.notes + tuple(extra))


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise InvalidParameter(
            f"{name} is not finite in float64; rescale the data"
        )
    return value


def check_float_size(name: str, size: int) -> None:
    """InvalidParameter when an integer size does not convert to a float.

    Sample sizes enter the theory as 1/n and 1/n1.
    """
    try:
        float(size)
    except OverflowError:
        raise InvalidParameter(
            f"{name} has {len(str(size))} digits, beyond float64's range"
        ) from None


def population_moments(frame: PopulationFrame) -> MomentSet:
    """Compute the exact moment table of a full population.

    All 25 tracked d_pqm triples are filled, together with means,
    variances (divisor N - 1), coefficients of variation, and the three
    pairwise correlations. A zero mean leaves the matching C unset and
    records a note rather than failing, because many downstream results
    never touch that C.

    The means, sums and d_pqm come from _kernels.moment_rows on the one
    row of the whole population, the function that also serves every
    sample, so a census sample reproduces this table bit for bit.

    Data at the edge of float64 fails with a typed error naming the
    moment: DegenerateVariable when a second moment underflows to 0,
    InvalidParameter when a mean, variance, C or d_pqm is not finite.
    """
    N = frame.N
    row_means, row_sums, row_delta = _kernels.moment_rows(
        frame.y[None], frame.x[None], frame.z[None], _TABLE_TRIPLES
    )
    means = {v: _finite(f"mean_{v}", float(m[0])) for v, m in zip("yxz", row_means)}
    sums = {t: float(total[0]) for t, total in row_sums.items()}
    # Variances and covariances on the N - 1 convention.
    s2: dict[str, float] = {}
    for v, t in zip("yxz", _IDENTITY_TRIPLES):
        if sums[t] / N == 0.0:
            raise DegenerateVariable(
                f"mu{delta_name(t)[1:]} underflows to 0: "
                f"{v} varies too little for float64"
            )
        s2[v] = _finite(f"S2_{v}", sums[t] / (N - 1))

    # The three pure second-order triples self-normalize to 1 by
    # definition; writing them literally keeps them exact instead of
    # sqrt(mu)**2 rounding one ulp away.
    delta = dict.fromkeys(_IDENTITY_TRIPLES, 1.0)
    for t in _TABLE_TRIPLES:
        delta[t] = _finite(delta_name(t), float(row_delta[t][0]))

    notes: list[str] = []
    cv: dict[str, float | None] = {}
    for v in ("y", "x", "z"):
        if means[v] == 0.0:
            cv[v] = None
            notes.append(f"mean of {v} is zero; C_{v} left undefined")
        else:
            cv[v] = _finite(f"C_{v}", math.sqrt(s2[v]) / means[v])

    # Correlations from the sums, not from d_110 and its kin.
    rho = {
        ab: sums[t] / (N - 1) / math.sqrt(s2[ab[0]] * s2[ab[1]])
        for ab, t in (("yx", (1, 1, 0)), ("yz", (1, 0, 1)), ("xz", (0, 1, 1)))
    }

    return MomentSet(
        delta=delta,
        N=N,
        mean_y=means["y"],
        mean_x=means["x"],
        mean_z=means["z"],
        s2_y=s2["y"],
        s2_x=s2["x"],
        s2_z=s2["z"],
        c_y=cv["y"],
        c_x=cv["x"],
        c_z=cv["z"],
        rho_yx=rho["yx"],
        rho_yz=rho["yz"],
        rho_xz=rho["xz"],
        notes=tuple(notes),
    )


_SCALAR_KEYS = (
    "mean_y",
    "mean_x",
    "mean_z",
    "S2_y",
    "S2_x",
    "S2_z",
    "C_y",
    "C_x",
    "C_z",
    "rho_yx",
    "rho_xz",
    "rho_yz",
)

# Keys tolerated in a parameter document but not part of the moment table
# itself: design hints and published comparison values read by the CLI.
_PASSTHROUGH_KEYS = ("N", "n", "n1", "published_pre")

_CORRELATION_TRIPLES = {
    "rho_yx": (1, 1, 0),
    "rho_yz": (1, 0, 1),
    "rho_xz": (0, 1, 1),
}


def moments_from_params(
    params: Mapping[str, object],
    *,
    delta310_from_delta300: bool = False,
) -> MomentSet:
    """Build a MomentSet from a flat parameter mapping.

    Recognized keys: N, n, n1 (design hints, validated but not stored
    except N), mean_*/S2_*/C_* scale fields, rho_* correlations, d_pqm
    standardized moments, and published_pre (ignored here). Anything
    else raises InvalidParameter, as do internally inconsistent values.

    With delta310_from_delta300=True a missing d_310 is filled with the
    value of d_300 and the substitution is recorded in notes. The flag
    exists for parameter sources that list d_300 but omit d_310: d_300
    enters no variance formula here while d_310 is required, which
    suggests a transposed subscript in such sources. The two moments are
    genuinely different quantities, so the substitution is never silent.
    """
    unknown = [
        k
        for k in params
        if k not in _SCALAR_KEYS
        and k not in _PASSTHROUGH_KEYS
        and k not in _NAME_TRIPLES
    ]
    if unknown:
        raise InvalidParameter(f"unrecognized parameter keys: {sorted(unknown)}")

    def as_float(key: str) -> float:
        value = params[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidParameter(f"{key} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int beyond float64's range
            number = math.inf
        if not math.isfinite(number):
            raise InvalidParameter(f"{key} must be finite")
        return number

    N: int | None = None
    for key in ("N", "n", "n1"):
        if key in params:
            value = params[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParameter(f"{key} must be an integer")
            if value < 2:
                raise InvalidParameter(f"{key} must be at least 2")
            check_float_size(key, value)
            if key == "N":
                N = value

    scalars: dict[str, float | None] = {k.lower(): None for k in _SCALAR_KEYS}
    for key in _SCALAR_KEYS:
        if key in params:
            scalars[key.lower()] = as_float(key)

    for key in ("s2_y", "s2_x", "s2_z"):
        value = scalars[key]
        if value is not None and value <= 0.0:
            raise NonPositiveVariance(f"{key[:2].upper() + key[2:]} must be positive")
    for key in ("c_y", "c_x", "c_z"):
        value = scalars[key]
        if value is not None and value == 0.0:
            raise InvalidParameter(f"{key[0].upper() + key[1:]} must be nonzero")
    for key in ("rho_yx", "rho_xz", "rho_yz"):
        value = scalars[key]
        if value is not None and abs(value) > 1.0:
            raise InvalidParameter(f"{key} must lie in [-1, 1]")

    # Derive a missing C from S2 and a nonzero mean.
    for v in ("y", "x", "z"):
        if scalars[f"c_{v}"] is None:
            s2v, meanv = scalars[f"s2_{v}"], scalars[f"mean_{v}"]
            if s2v is not None and meanv not in (None, 0.0):
                scalars[f"c_{v}"] = math.sqrt(s2v) / meanv

    delta: dict[tuple[int, int, int], float] = {}
    for name, triple in _NAME_TRIPLES.items():
        if name in params:
            delta[triple] = as_float(name)

    for triple in _IDENTITY_TRIPLES:
        if triple in delta and abs(delta[triple] - 1.0) > 1e-9:
            raise InvalidParameter(
                f"{delta_name(triple)} must equal 1 by definition"
            )
        delta[triple] = 1.0

    # Correlations and the matching first-order cross moments are the
    # same quantity under two names; keep them consistent.
    for key, triple in _CORRELATION_TRIPLES.items():
        rho = scalars[key]
        if rho is not None and triple in delta:
            if abs(rho - delta[triple]) > 1e-9:
                raise InvalidParameter(
                    f"{key} and {delta_name(triple)} disagree"
                )
        elif rho is not None:
            delta[triple] = rho
        elif triple in delta:
            scalars[key] = delta[triple]

    notes: list[str] = []
    if delta310_from_delta300:
        if (3, 1, 0) in delta:
            notes.append("d_310 supplied; d_300 substitution flag had no effect")
        elif (3, 0, 0) in delta:
            delta[(3, 1, 0)] = delta[(3, 0, 0)]
            notes.append(
                f"d_310 not supplied; substituted d_300={delta[(3, 0, 0)]!r} "
                "(requested transposed-subscript reading; the two moments "
                "are distinct quantities)"
            )

    for fourth, third in (((0, 4, 0), (0, 3, 0)), ((0, 0, 4), (0, 0, 3))):
        if fourth in delta and third in delta:
            slack = delta[fourth] - delta[third] ** 2 - 1.0
            if slack < -1e-12:
                raise InvalidParameter(
                    f"{delta_name(fourth)} < {delta_name(third)}^2 + 1; no "
                    "distribution has such a moment pair"
                )

    return MomentSet(
        delta=delta,
        N=N,
        mean_y=scalars["mean_y"],
        mean_x=scalars["mean_x"],
        mean_z=scalars["mean_z"],
        s2_y=scalars["s2_y"],
        s2_x=scalars["s2_x"],
        s2_z=scalars["s2_z"],
        c_y=scalars["c_y"],
        c_x=scalars["c_x"],
        c_z=scalars["c_z"],
        rho_yx=scalars["rho_yx"],
        rho_xz=scalars["rho_xz"],
        rho_yz=scalars["rho_yz"],
        notes=tuple(notes),
    )


def moments_to_params(m: MomentSet) -> dict[str, object]:
    """Flatten a MomentSet back into a parameter mapping.

    Inverse of moments_from_params up to derived values: keys absent
    from the original document may appear if they were derivable.
    """
    doc: dict[str, object] = {}
    if m.N is not None:
        doc["N"] = int(m.N)
    lower_to_key = {k.lower(): k for k in _SCALAR_KEYS}
    for low, key in lower_to_key.items():
        value = getattr(m, low)
        if value is not None:
            doc[key] = float(value)
    for triple, value in sorted(m.delta.items()):
        doc[delta_name(triple)] = float(value)
    return doc


def normal_theory_moments(
    rho_yx: float,
    rho_xz: float = 0.0,
    rho_yz: float = 0.0,
) -> MomentSet:
    """Moment table of a trivariate normal with the given correlations.

    Every odd standardized moment vanishes, fourth powers are 3, and the
    mixed fourth moments follow the product rule for jointly normal
    variables. Coefficients of variation are set to 1, a pure
    convention since normality fixes shape, not scale.
    """
    for name, value in (
        ("rho_yx", rho_yx),
        ("rho_xz", rho_xz),
        ("rho_yz", rho_yz),
    ):
        if not (-1.0 <= value <= 1.0):
            raise InvalidParameter(f"{name} must lie in [-1, 1]")
    det = (
        1.0
        + 2.0 * rho_yx * rho_xz * rho_yz
        - rho_yx**2
        - rho_xz**2
        - rho_yz**2
    )
    if det < -1e-12:
        raise InvalidParameter("correlations do not form a valid joint normal")

    delta: dict[tuple[int, int, int], float] = {t: 0.0 for t in DELTA_TRIPLES}
    delta[(2, 0, 0)] = delta[(0, 2, 0)] = delta[(0, 0, 2)] = 1.0
    delta[(1, 1, 0)] = rho_yx
    delta[(1, 0, 1)] = rho_yz
    delta[(0, 1, 1)] = rho_xz
    delta[(4, 0, 0)] = delta[(0, 4, 0)] = delta[(0, 0, 4)] = 3.0
    delta[(2, 2, 0)] = 1.0 + 2.0 * rho_yx**2
    delta[(2, 0, 2)] = 1.0 + 2.0 * rho_yz**2
    delta[(0, 2, 2)] = 1.0 + 2.0 * rho_xz**2
    delta[(1, 3, 0)] = 3.0 * rho_yx
    delta[(3, 1, 0)] = 3.0 * rho_yx
    delta[(1, 1, 2)] = rho_yx + 2.0 * rho_yz * rho_xz

    return MomentSet(
        delta=delta,
        c_y=1.0,
        c_x=1.0,
        c_z=1.0,
        rho_yx=rho_yx,
        rho_xz=rho_xz,
        rho_yz=rho_yz,
        notes=("normal-theory table; coefficients of variation set to 1",),
    )
