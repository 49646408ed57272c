"""Hot numeric kernels: vectorized numpy over many replications at once.

Sample draws use a counter-based splitmix64 generator, so replication t
of a run is a pure function of (seed, t). Floating-point statistics are
exactly reproducible for the same index arrays.

The optimum-weight closed form lives here too (optimum_weights), in
plain arithmetic, so that the per-sample kernel and the scalar
population path in analytics run the same code.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

import numpy as np

from .errors import InvalidParameter

# Kernel facts recorded by the benchmark (perfbench/worker.py). There is
# a single numpy implementation, so these are constants.
HAVE_NUMBA = False
ENV_VAR = "CORR2PHASE_BACKEND"


def resolve_backend(backend: None = None) -> str:
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"


# Output row layout of stats_rows.
COL_R, COL_U, COL_V, COL_W, COL_A = 0, 1, 2, 3, 4
COL_ALPHA, COL_BETA, COL_GAMMA, COL_DELTA = 5, 6, 7, 8
NCOLS = 9

FLAG_DEGENERATE = 1  # a required sample variance is zero
FLAG_NONFINITE = 2  # a core statistic (r, u, v, w, a) is not finite
FLAG_SINGULAR = 4  # plug-in optimum constants could not be formed

# Relative tolerance for declaring an optimum-constant denominator
# singular, and absolute tolerance below which a correlation is treated
# as zero. The scalar path in analytics uses the same values.
SINGULAR_RTOL = 1e-9
ZERO_R_TOL = 1e-9

# Standardized moments d_pqm that the optimum weights read.
WEIGHT_TRIPLES = (
    (2, 1, 0),
    (0, 3, 0),
    (1, 2, 0),
    (2, 2, 0),
    (0, 4, 0),
    (1, 3, 0),
    (2, 0, 1),
    (0, 2, 1),
    (1, 1, 1),
    (2, 0, 2),
    (0, 2, 2),
    (1, 1, 2),
    (0, 0, 3),
    (0, 0, 4),
)

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_MASK64 = (1 << 64) - 1


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def spread(kurt, skew):
    """Excess spread kurt - skew^2 - 1 of one axis, and whether it is singular.

    The spread is the determinant scale of that axis's 2x2 weight
    system; it is positive for every nondegenerate distribution and zero
    exactly for a two-point one. Takes floats or arrays.
    """
    span = kurt - skew * skew - 1.0
    return span, span <= SINGULAR_RTOL * (abs(kurt) + skew * skew + 1.0)


def optimum_weights(d, c_x, c_z, r, span_x, span_z):
    """Variance slopes and the optimum adjustment weights, in closed form.

    d(p, q, m) returns the standardized central moment d_pqm; c_x, c_z
    are the coefficients of variation and r the correlation, all on the
    same footing: exact population values or one sample's estimates.
    span_x and span_z come from spread(). The arithmetic is plain, so
    floats and arrays (one entry per sample) both work; guarding r, c_x,
    c_z and the spans against zero is the caller's job.

    Returns (slopes, weights), each ordered (mean_x, var_x, mean_z, var_z).
    """
    skew_x, kurt_x = d(0, 3, 0), d(0, 4, 0)
    skew_z, kurt_z = d(0, 0, 3), d(0, 0, 4)
    slope_mean_x = (2.0 * d(1, 2, 0) / r - d(2, 1, 0) - skew_x) * c_x
    slope_var_x = 2.0 * d(1, 3, 0) / r - d(2, 2, 0) - kurt_x
    slope_mean_z = (2.0 * d(1, 1, 1) / r - d(2, 0, 1) - d(0, 2, 1)) * c_z
    slope_var_z = 2.0 * d(1, 1, 2) / r - d(2, 0, 2) - d(0, 2, 2)
    weights = (
        (slope_var_x * c_x * skew_x - slope_mean_x * (kurt_x - 1.0))
        / (2.0 * c_x * c_x * span_x),
        (slope_mean_x * skew_x - slope_var_x * c_x) / (2.0 * c_x * span_x),
        (slope_var_z * c_z * skew_z - slope_mean_z * (kurt_z - 1.0))
        / (2.0 * c_z * c_z * span_z),
        (slope_mean_z * skew_z - slope_var_z * c_z) / (2.0 * c_z * span_z),
    )
    return (slope_mean_x, slope_var_x, slope_mean_z, slope_var_z), weights


def draw_rows(
    N: int,
    n1: int,
    n: int,
    reps: int,
    seed: int,
    rep_lo: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `reps` two-phase index samples, replications rep_lo onward.

    Returns (first, second): sorted int64 index arrays of shape
    (reps, n1) and (reps, n), second[t] a subset of first[t].
    Replication t depends only on (seed, rep_lo + t), never on reps or
    chunking, which is what makes parallel simulation order-free. The
    seed must lie in [0, 2**64).
    """
    if not (2 <= n <= n1 <= N):
        raise InvalidParameter("need 2 <= n <= n1 <= N")
    if reps < 0 or rep_lo < 0:
        raise InvalidParameter("reps and rep_lo must be nonnegative")
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidParameter(f"seed must lie in [0, 2**64), got {seed}")
    ticks = np.arange(rep_lo + 1, rep_lo + reps + 1, dtype=np.uint64)
    stream = mix64(np.uint64(seed) + _GOLDEN * ticks)
    pool = np.broadcast_to(np.arange(N, dtype=np.int64), (reps, N)).copy()
    rows = np.arange(reps)
    for j in range(n1):
        # scalar increments in masked python-int math: scalar uint64
        # products would warn on wraparound, array ops never do
        inc = np.uint64((_GOLDEN_INT * (j + 1)) & _MASK64)
        rnd = mix64(stream + inc)
        k = j + (rnd % np.uint64(N - j)).astype(np.int64)
        pj = pool[rows, j].copy()
        pool[rows, j] = pool[rows, k]
        pool[rows, k] = pj
    sub = pool[:, :n1].copy()
    for j in range(n):
        inc = np.uint64((_GOLDEN_INT * (n1 + j + 1)) & _MASK64)
        rnd = mix64(stream + inc)
        k = j + (rnd % np.uint64(n1 - j)).astype(np.int64)
        sj = sub[rows, j].copy()
        sub[rows, j] = sub[rows, k]
        sub[rows, k] = sj
    return np.sort(pool[:, :n1], axis=1), np.sort(sub[:, :n], axis=1)


def _powers(f, f2):
    """Factors of f**p for p = 0..4, built from f and its square f2."""
    return ([], [f], [f2], [f2, f], [f2, f2])


def stats_rows(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    aux_zbar: float,
    aux_sz2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample statistics rows for a batch of index draws.

    Returns (rows, flags). rows[t] holds [r, u, v, w, a, alpha, beta,
    gamma, delta] for draw t, NaN where undefined; flags[t] is 0 or one
    of FLAG_DEGENERATE, FLAG_NONFINITE, FLAG_SINGULAR. Rows flagged
    SINGULAR still carry valid r, u, v, w, a.
    """
    y, x, z = (np.asarray(arr, dtype=np.float64) for arr in (y, x, z))
    n1 = first.shape[1]
    n = second.shape[1]
    x1 = x[first]
    z1 = z[first]
    xbar1 = x1.mean(axis=1)
    zbar1 = z1.mean(axis=1)
    vx1 = ((x1 - xbar1[:, None]) ** 2).sum(axis=1)
    vz1 = ((z1 - zbar1[:, None]) ** 2).sum(axis=1)

    ys = y[second]
    xs = x[second]
    zs = z[second]
    dy = ys - ys.mean(axis=1)[:, None]
    dx = xs - xs.mean(axis=1)[:, None]
    dz = zs - zs.mean(axis=1)[:, None]
    xbar = xs.mean(axis=1)
    zbar = zs.mean(axis=1)
    dy2 = dy * dy
    dx2 = dx * dx
    dz2 = dz * dz

    m200 = dy2.sum(axis=1)
    m020 = dx2.sum(axis=1)
    m002 = dz2.sum(axis=1)
    m110 = (dy * dx).sum(axis=1)

    degenerate = (
        (m200 <= 0.0) | (m020 <= 0.0) | (m002 <= 0.0) | (vx1 <= 0.0) | (vz1 <= 0.0)
    )

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sy2 = m200 / (n - 1.0)
        sx2 = m020 / (n - 1.0)
        sz2 = m002 / (n - 1.0)
        syx = m110 / (n - 1.0)
        sx2_1 = vx1 / (n1 - 1.0)
        sz2_1 = vz1 / (n1 - 1.0)

        r = syx / np.sqrt(sy2 * sx2)
        u = xbar / xbar1
        v = sx2 / sx2_1
        w = zbar1 / aux_zbar
        a = sz2_1 / aux_sz2

        core_bad = ~(
            np.isfinite(r)
            & np.isfinite(u)
            & np.isfinite(v)
            & np.isfinite(w)
            & np.isfinite(a)
        )
        nonfinite = core_bad & ~degenerate

        # d_pqm = mean(dy^p dx^q dz^m) / (sdy^p sdx^q sdz^m); _powers fixes
        # the order of the factors, and with it the rounding of every row
        dev = [_powers(dy, dy2), _powers(dx, dx2), _powers(dz, dz2)]
        scale = [_powers(np.sqrt(var), var) for var in (m200 / n, m020 / n, m002 / n)]
        std = {}
        for t in WEIGHT_TRIPLES:
            num = reduce(mul, dev[0][t[0]] + dev[1][t[1]] + dev[2][t[2]])
            den = reduce(mul, scale[0][t[0]] + scale[1][t[1]] + scale[2][t[2]])
            std[t] = (num.sum(axis=1) / n) / den

        span_x, singular_x = spread(std[0, 4, 0], std[0, 3, 0])
        span_z, singular_z = spread(std[0, 0, 4], std[0, 0, 3])
        _, weights = optimum_weights(
            lambda p, q, m: std[p, q, m],
            np.sqrt(sx2) / xbar,
            np.sqrt(sz2) / zbar,
            r,
            span_x,
            span_z,
        )
        out = np.column_stack((r, u, v, w, a) + weights)
        singular = (
            (xbar == 0.0)
            | (zbar == 0.0)
            | (np.abs(r) < ZERO_R_TOL)
            | singular_x
            | singular_z
            | ~np.isfinite(out[:, COL_ALPHA:]).all(axis=1)
        )
    singular &= ~(degenerate | nonfinite)
    out[degenerate | nonfinite, :] = np.nan
    out[singular, COL_ALPHA:] = np.nan

    flags = np.zeros(first.shape[0], np.uint8)
    flags[degenerate] = FLAG_DEGENERATE
    flags[nonfinite] = FLAG_NONFINITE
    flags[singular] = FLAG_SINGULAR
    return out, flags


def chunk_rows(N: int, cap: int = 16384) -> int:
    """Replications per kernel call, sized to bound scratch memory."""
    return max(1, min(cap, 4_000_000 // max(N, 1)))
