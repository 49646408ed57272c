"""Independent oracle for the frozen expected values in this test suite.

Run `python tests/oracles.py` to re-derive every frozen literal. The
script deliberately imports nothing from corr2phase: population and
sample moments are exact rationals (fractions.Fraction), square roots
and the optimum-constant layer run under mpmath at 50 digits, sample
draws are re-implemented in pure Python integers, and the small design
is enumerated with an explicit double loop. Tests compare the engine's
float64 results against these values at tolerances just above float64
rounding, so an algebra mistake in the engine cannot hide. exact_total
is the exact float64 sum by exponent bins that the engine used before
error-free extraction; its integers are the reference for the new ones.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    z = x & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def draw_pair(N: int, n1: int, n: int, seed: int, rep: int):
    """Pure-python re-derivation of one counter-based two-phase draw."""
    stream = mix64((seed + GOLDEN * (rep + 1)) & MASK)
    pool = list(range(N))
    for j in range(n1):
        rnd = mix64((stream + GOLDEN * (j + 1)) & MASK)
        k = j + rnd % (N - j)
        pool[j], pool[k] = pool[k], pool[j]
    sub = pool[:n1]
    sub = list(sub)
    for j in range(n):
        rnd = mix64((stream + GOLDEN * (n1 + j + 1)) & MASK)
        k = j + rnd % (n1 - j)
        sub[j], sub[k] = sub[k], sub[j]
    return sorted(pool[:n1]), sorted(sub[:n])


def constant_rows(c):
    """Rows of the 2-D array c that take one value, by == (PopulationFrame's min == max)."""
    return (c == c[:, :1]).all(axis=1)


# ----------------------------------------------------------------------
# exact summation by exponent: the engine's former _exact_total, kept as
# the reference for its replacement

SUM_BLOCK = 1 << 26
_SIGN = -(1 << 63)  # bit masks of a float64 viewed as int64
_FRACTION = (1 << 52) - 1


def exact_total(terms) -> int | None:
    """The exact sum of float64 terms, in units of 2**-1074; None if a term is not finite.

    Each term is a signed 53-bit integer mantissa times a power of two.
    The mantissas are split into a high 26-bit and a low 27-bit half,
    and each half is summed per sign and exponent with bincount. No
    partial sum then needs more than 53 significant bits, so the float
    sums are exact. The few non-empty bins are added as Python ints
    (exact summation by exponent, Demmel & Hida 2003). Totals of
    separate pieces of an array add up to the total of the whole.
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
            return None
        low_sums = np.bincount(key, weights=low)
        for k in np.flatnonzero(high_sums).tolist():
            e = k & 0x7FF
            mantissas = int(high_sums[k]) + int(low_sums[k])
            if e == 0:
                # zeros and subnormals have no implicit bit to count
                extra = int(np.count_nonzero(key == k)) << 52
                mantissas += extra if k & 0x800 else -extra
            total += mantissas << max(e - 1, 0)
    return total


# ----------------------------------------------------------------------
# exact moment machinery

Y6 = (1, 2, 3, 4, 5, 9)
X6 = (2, 1, 4, 3, 8, 6)
Z6 = (1, 3, 2, 5, 4, 8)

TRIPLES = [
    (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (3, 0, 0), (0, 3, 0), (0, 0, 3),
    (4, 0, 0), (0, 4, 0), (0, 0, 4),
    (2, 1, 0), (1, 2, 0), (2, 2, 0), (1, 3, 0), (3, 1, 0),
    (2, 0, 1), (0, 2, 1), (1, 1, 1), (2, 0, 2), (0, 2, 2),
    (1, 1, 2), (0, 1, 2), (1, 0, 2),
]


def mu(ys, xs, zs, p, q, m, divisor=None):
    k = len(ys)
    ybar = Fraction(sum(ys), k)
    xbar = Fraction(sum(xs), k)
    zbar = Fraction(sum(zs), k)
    total = sum(
        (Fraction(y) - ybar) ** p * (Fraction(x) - xbar) ** q * (Fraction(z) - zbar) ** m
        for y, x, z in zip(ys, xs, zs)
    )
    return total / (divisor if divisor is not None else k)


def mpf_frac(f: Fraction):
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def delta_table(ys, xs, zs):
    m200 = mu(ys, xs, zs, 2, 0, 0)
    m020 = mu(ys, xs, zs, 0, 2, 0)
    m002 = mu(ys, xs, zs, 0, 0, 2)
    sy, sx, sz = (mp.sqrt(mpf_frac(v)) for v in (m200, m020, m002))
    out = {}
    for p, q, m in TRIPLES:
        val = mpf_frac(mu(ys, xs, zs, p, q, m)) / (sy**p * sx**q * sz**m)
        out[(p, q, m)] = val
    return out


def corr(ys, xs):
    n = len(ys)
    ybar = Fraction(sum(ys), n)
    xbar = Fraction(sum(xs), n)
    syx = sum((Fraction(y) - ybar) * (Fraction(x) - xbar) for y, x in zip(ys, xs))
    syy = sum((Fraction(y) - ybar) ** 2 for y in ys)
    sxx = sum((Fraction(x) - xbar) ** 2 for x in xs)
    return mpf_frac(syx) / mp.sqrt(mpf_frac(syy) * mpf_frac(sxx))


# ----------------------------------------------------------------------
# optimum-constant layer (transcribed once, in mpmath, from the
# first-order variance algebra; the engine has its own float64 version)


def optimum_layer(d, c_x, c_z, rho):
    sm_x = (2 * d[(1, 2, 0)] / rho - d[(2, 1, 0)] - d[(0, 3, 0)]) * c_x
    sv_x = 2 * d[(1, 3, 0)] / rho - d[(2, 2, 0)] - d[(0, 4, 0)]
    sm_z = (2 * d[(1, 1, 1)] / rho - d[(2, 0, 1)] - d[(0, 2, 1)]) * c_z
    sv_z = 2 * d[(1, 1, 2)] / rho - d[(2, 0, 2)] - d[(0, 2, 2)]
    span_x = d[(0, 4, 0)] - d[(0, 3, 0)] ** 2 - 1
    span_z = d[(0, 0, 4)] - d[(0, 0, 3)] ** 2 - 1
    w_mx = (sv_x * c_x * d[(0, 3, 0)] - sm_x * (d[(0, 4, 0)] - 1)) / (2 * c_x**2 * span_x)
    w_vx = (sm_x * d[(0, 3, 0)] - sv_x * c_x) / (2 * c_x * span_x)
    w_mz = (sv_z * c_z * d[(0, 0, 3)] - sm_z * (d[(0, 0, 4)] - 1)) / (2 * c_z**2 * span_z)
    w_vz = (sm_z * d[(0, 0, 3)] - sv_z * c_z) / (2 * c_z * span_z)
    return (sm_x, sv_x, sm_z, sv_z), (w_mx, w_vx, w_mz, w_vz), (span_x, span_z)


def var_r_of(d, rho, n):
    quart = d[(0, 4, 0)] + d[(4, 0, 0)] + 2 * d[(2, 2, 0)]
    cubic = d[(1, 3, 0)] + d[(3, 1, 0)]
    return (d[(2, 2, 0)] + rho**2 * quart / 4 - rho * cubic) / n


def var_t_of(d, c_x, c_z, rho, n, n1, t):
    (sm_x, sv_x, sm_z, sv_z), _, _ = optimum_layer(d, c_x, c_z, rho)
    t1, t2, t3, t4 = t
    bx = (
        t1**2 * c_x**2
        + t2**2 * (d[(0, 4, 0)] - 1)
        + 2 * t1 * t2 * c_x * d[(0, 3, 0)]
        + t1 * sm_x
        + t2 * sv_x
    )
    bz = (
        t3**2 * c_z**2
        + t4**2 * (d[(0, 0, 4)] - 1)
        + 2 * t3 * t4 * c_z * d[(0, 0, 3)]
        + t3 * sm_z
        + t4 * sv_z
    )
    vr = var_r_of(d, rho, n)
    return vr + (mp.mpf(1) / n - mp.mpf(1) / n1) * rho**2 * bx + rho**2 * bz / n1


def min_ladder(d, c_x, c_z, rho, n, n1):
    (sm_x, sv_x, sm_z, sv_z), _, (span_x, span_z) = optimum_layer(d, c_x, c_z, rho)
    vr = var_r_of(d, rho, n)
    red_x = (mp.mpf(1) / n - mp.mpf(1) / n1) * rho**2 * (
        sm_x**2 / (4 * c_x**2)
        + ((sm_x / c_x) * d[(0, 3, 0)] - sv_x) ** 2 / (4 * span_x)
    )
    red_z = (
        rho**2
        * (
            sm_z**2 / (4 * c_z**2)
            + ((sm_z / c_z) * d[(0, 0, 3)] - sv_z) ** 2 / (4 * span_z)
        )
        / n1
    )
    return vr, vr - red_x, vr - red_x - red_z, red_z


def show(label, value):
    print(f"{label} = {float(value)!r}")


def main() -> None:
    print("# mix64 finalizer reference vectors")
    for x in (0, 1, GOLDEN, 2**64 - 1, 123456789):
        print(f"mix64({x:#x}) = {mix64(x):#018x}")

    print("\n# two-phase draw reference (N=6, n1=4, n=2, seed=42)")
    for rep in range(3):
        first, second = draw_pair(6, 4, 2, 42, rep)
        print(f"rep {rep}: first={first} second={second}")

    print("\n# six-unit population, exact")
    n = 6
    ybar = Fraction(sum(Y6), n)
    xbar = Fraction(sum(X6), n)
    zbar = Fraction(sum(Z6), n)
    s2 = {
        "y": mu(Y6, X6, Z6, 2, 0, 0, divisor=n - 1),
        "x": mu(Y6, X6, Z6, 0, 2, 0, divisor=n - 1),
        "z": mu(Y6, X6, Z6, 0, 0, 2, divisor=n - 1),
    }
    print(f"means y={ybar} x={xbar} z={zbar}")
    print(f"S2 y={s2['y']} x={s2['x']} z={s2['z']}")
    show("C_y", mp.sqrt(mpf_frac(s2["y"])) / mpf_frac(ybar))
    show("C_x", mp.sqrt(mpf_frac(s2["x"])) / mpf_frac(xbar))
    show("C_z", mp.sqrt(mpf_frac(s2["z"])) / mpf_frac(zbar))
    rho6 = corr(Y6, X6)
    show("rho_yx", rho6)
    show("rho_yz", corr(Y6, Z6))
    show("rho_xz", corr(X6, Z6))
    d6 = delta_table(Y6, X6, Z6)
    for t in TRIPLES:
        show(f"d_{t[0]}{t[1]}{t[2]}", d6[t])

    print("\n# six-unit sample: first={0,1,2,3}, second={0,1,2}")
    fy, fx, fz = Y6[:4], X6[:4], Z6[:4]
    sy, sx, sz = Y6[:3], X6[:3], Z6[:3]
    xbar1 = Fraction(sum(fx), 4)
    zbar1 = Fraction(sum(fz), 4)
    s2x1 = mu(fy, fx, fz, 0, 2, 0, divisor=3)
    s2z1 = mu(fy, fx, fz, 0, 0, 2, divisor=3)
    xbar2 = Fraction(sum(sx), 3)
    zbar2 = Fraction(sum(sz), 3)
    s2y2 = mu(sy, sx, sz, 2, 0, 0, divisor=2)
    s2x2 = mu(sy, sx, sz, 0, 2, 0, divisor=2)
    s2z2 = mu(sy, sx, sz, 0, 0, 2, divisor=2)
    syx2 = sum(
        (Fraction(a) - Fraction(sum(sy), 3)) * (Fraction(b) - xbar2)
        for a, b in zip(sy, sx)
    ) / 2
    u = xbar2 / xbar1
    v = s2x2 / s2x1
    w = zbar1 / zbar
    a_ratio = s2z1 / s2["z"]
    print(f"u={u} v={v} w={w} a={a_ratio}")
    show("u", mpf_frac(u))
    show("v", mpf_frac(v))
    show("w", mpf_frac(w))
    show("a", mpf_frac(a_ratio))
    r_hat = mpf_frac(syx2) / mp.sqrt(mpf_frac(s2y2) * mpf_frac(s2x2))
    show("r", r_hat)
    show("s_yx", mpf_frac(syx2))
    show("s2_y", mpf_frac(s2y2))
    show("s2_x", mpf_frac(s2x2))
    show("s2_z", mpf_frac(s2z2))
    show("s2_x_first", mpf_frac(s2x1))
    show("s2_z_first", mpf_frac(s2z1))
    c_x_hat = mp.sqrt(mpf_frac(s2x2)) / mpf_frac(xbar2)
    c_z_hat = mp.sqrt(mpf_frac(s2z2)) / mpf_frac(zbar2)
    show("c_x_hat", c_x_hat)
    show("c_z_hat", c_z_hat)
    dhat = delta_table(sy, sx, sz)
    hat_triples = [
        (2, 1, 0), (0, 3, 0), (1, 2, 0), (2, 2, 0), (0, 4, 0), (1, 3, 0),
        (2, 0, 1), (0, 2, 1), (1, 1, 1), (2, 0, 2), (0, 2, 2), (1, 1, 2),
        (0, 0, 3), (0, 0, 4),
    ]
    for t in hat_triples:
        show(f"dhat_{t[0]}{t[1]}{t[2]}", dhat[t])
    slopes_hat, weights_hat, _ = optimum_layer(dhat, c_x_hat, c_z_hat, r_hat)
    for name, val in zip(("slope_mean_x", "slope_var_x", "slope_mean_z", "slope_var_z"), slopes_hat):
        show(f"plugin_{name}", val)
    for name, val in zip(("weight_mean_x", "weight_var_x", "weight_mean_z", "weight_var_z"), weights_hat):
        show(f"plugin_{name}", val)

    print("\n# published 80-unit parameter set (d_310 := value listed as d_300)")
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "fixtures", "murthy67.json")) as fh:
        pub = json.load(fh)
    dp = {}
    for key, value in pub.items():
        if key.startswith("d_"):
            p, q, m = (int(ch) for ch in key[2:])
            dp[(p, q, m)] = mp.mpf(repr(value))
    dp[(3, 1, 0)] = dp.pop((3, 0, 0))
    for t in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        dp[t] = mp.mpf(1)
    rho = mp.mpf(repr(pub["rho_yx"]))
    c_x = mp.mpf(repr(pub["C_x"]))
    c_z = mp.mpf(repr(pub["C_z"]))
    nn, nn1 = pub["n"], pub["n1"]
    slopes, weights, spans = optimum_layer(dp, c_x, c_z, rho)
    for name, val in zip(("slope_mean_x", "slope_var_x", "slope_mean_z", "slope_var_z"), slopes):
        show(name, val)
    for name, val in zip(("weight_mean_x", "weight_var_x", "weight_mean_z", "weight_var_z"), weights):
        show(name, val)
    show("span_x", spans[0])
    show("span_z", spans[1])
    vr, hd, td, gap = min_ladder(dp, c_x, c_z, rho, nn, nn1)
    show("var_r_n10", vr)
    show("min_var_hd", hd)
    show("min_var_td", td)
    show("gap", gap)
    show("pre_hd", 100 * vr / hd)
    show("pre_td", 100 * vr / td)
    at_opt = var_t_of(dp, c_x, c_z, rho, nn, nn1, weights)
    print(f"internal check |var_t(optimum) - min_var_td| = {float(abs(at_opt - td)):.3e}")
    for k in range(4):
        bumped = list(weights)
        bumped[k] += mp.mpf("0.01")
        assert var_t_of(dp, c_x, c_z, rho, nn, nn1, bumped) > td
    print("internal check perturbed weights strictly above the minimum: ok")

    print("\n# exact enumeration, N=6, n1=4, n=3, plain sample correlation")
    pairs = 0
    total_r = mp.mpf(0)
    total_sq = mp.mpf(0)
    total_u = Fraction(0)
    for first in itertools.combinations(range(6), 4):
        for second in itertools.combinations(first, 3):
            ys = [Y6[i] for i in second]
            xs = [X6[i] for i in second]
            r_val = corr(ys, xs)
            total_r += r_val
            total_sq += (r_val - rho6) ** 2
            xbar_s = Fraction(sum(xs), 3)
            xbar_f = Fraction(sum(X6[i] for i in first), 4)
            total_u += xbar_s / xbar_f
            pairs += 1
    assert pairs == 60
    mean_r = total_r / pairs
    mse_r = total_sq / pairs
    show("enum_mean_r", mean_r)
    show("enum_mse_r", mse_r)
    show("enum_bias_r", mean_r - rho6)
    e_u_minus_1 = total_u / pairs - 1
    print(f"E(u) - 1 exact = {e_u_minus_1}")
    show("enum_e_u_minus_1", mpf_frac(e_u_minus_1))

    print("\n# chain-ratio hand value")
    val = (
        Fraction(9, 10)
        / (Fraction(1, 2) * Fraction(1, 1) * Fraction(1, 2) * Fraction(1, 1))
    )
    print(f"r=0.9, u=1/2, w=1, v=1/2, a=1 -> {val} = {float(val)}")

    print("\n# normal-theory cross-check at rho_yx = 0.5 (Monte Carlo)")
    import numpy as np

    rng = np.random.default_rng(987654321)
    tot22 = 0.0
    tot13 = 0.0
    m_samples = 0
    for _ in range(8):
        g = rng.standard_normal((1_000_000, 2))
        yv = g[:, 0]
        xv = 0.5 * g[:, 0] + np.sqrt(0.75) * g[:, 1]
        tot22 += float(np.sum(yv**2 * xv**2))
        tot13 += float(np.sum(yv * xv**3))
        m_samples += g.shape[0]
    d220_mc = tot22 / m_samples
    d130_mc = tot13 / m_samples
    print(f"d_220 MC {d220_mc:.5f} vs closed form 1.5 (|diff| {abs(d220_mc - 1.5):.5f})")
    print(f"d_130 MC {d130_mc:.5f} vs closed form 1.5 (|diff| {abs(d130_mc - 1.5):.5f})")
    assert abs(d220_mc - 1.5) < 0.02 and abs(d130_mc - 1.5) < 0.02


if __name__ == "__main__":
    main()
