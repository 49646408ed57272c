import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase import _kernels, analytics
from corr2phase._kernels import SINGULAR_RTOL, WEIGHT_TRIPLES, ZERO_R_TOL
from corr2phase.errors import (
    Corr2PhaseError,
    InvalidDesign,
    InvalidParameter,
    MissingParameter,
    SingularDenominator,
    ZeroCorrelation,
)

# Frozen 50-digit oracle values for the published 80-unit parameter set
# (d_310 read from the listed d_300, n=10, n1=25).
PUB_LADDER = {
    "var_r": 0.1823010320704,
    "min_var_hd": 0.18195006609572645,
    "min_var_td": 0.18172007187569106,
    "gap": 0.0002299942200353879,
    "pre_hd": 100.19289136970629,
    "pre_td": 100.31970061904133,
}
PUB_SLOPES = (
    0.15038042469352014,
    0.25682714535901924,
    0.12088139579684763,
    0.1992416812609457,
)
PUB_WEIGHTS = (
    -0.04904819452357745,
    -0.025855340849145172,
    -0.08088777469884473,
    -0.020075167331426565,
)
PUB_N, PUB_N1 = 10, 25


class TestNormalTheoryIdentity:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9136])
    @pytest.mark.parametrize("n", [10, 100])
    def test_classical_variance(self, rho, n):
        m = c2p.normal_theory_moments(rho)
        expect = (1.0 - rho * rho) ** 2 / n
        assert c2p.var_r(m, n) == pytest.approx(expect, rel=1e-10)

    def test_gaussian_delta_values(self):
        m = c2p.normal_theory_moments(0.5)
        assert m.d(3, 1, 0) == pytest.approx(1.5, rel=1e-15)
        assert m.d(1, 3, 0) == pytest.approx(1.5, rel=1e-15)
        assert m.d(2, 2, 0) == pytest.approx(1.5, rel=1e-15)
        assert m.d(0, 3, 0) == 0.0
        assert m.d(0, 4, 0) == pytest.approx(3.0, rel=1e-15)

    def test_invalid_correlation_triple(self):
        with pytest.raises(InvalidParameter):
            c2p.normal_theory_moments(0.95, 0.9, 0.0)


class TestVarianceLadder:
    def test_frozen_ladder(self, published_moments):
        m = published_moments
        assert c2p.var_r(m, PUB_N) == pytest.approx(
            PUB_LADDER["var_r"], rel=1e-13
        )
        assert c2p.min_var_hd(m, PUB_N, PUB_N1) == pytest.approx(
            PUB_LADDER["min_var_hd"], rel=1e-13
        )
        assert c2p.min_var_td(m, PUB_N, PUB_N1) == pytest.approx(
            PUB_LADDER["min_var_td"], rel=1e-13
        )
        assert c2p.variance_gap(m, PUB_N, PUB_N1) == pytest.approx(
            PUB_LADDER["gap"], rel=1e-12
        )

    def test_frozen_optimum_constants(self, published_moments):
        opt = c2p.optimum_constants(published_moments)
        got_slopes = (
            opt.slope_mean_x,
            opt.slope_var_x,
            opt.slope_mean_z,
            opt.slope_var_z,
        )
        for g, e in zip(got_slopes, PUB_SLOPES):
            assert g == pytest.approx(e, rel=1e-13)
        for g, e in zip(opt.weights(), PUB_WEIGHTS):
            assert g == pytest.approx(e, rel=1e-13)

    def test_variance_at_optimum_attains_minimum(self, published_moments):
        m = published_moments
        w = c2p.optimum_constants(m).weights()
        at_opt = c2p.var_t_class(m, PUB_N, PUB_N1, w)
        assert at_opt == c2p.min_var_td(m, PUB_N, PUB_N1)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n, n1", [(2, 3), (10, 25), (20, 60), (100, 300)])
    def test_minimum_is_class_variance_at_optimum(self, seed, n, n1):
        m = c2p.population_moments(c2p.random_population(300, seed=seed))
        w = c2p.optimum_constants(m).weights()
        td = c2p.var_t_class(m, n, n1, w)
        hd = c2p.var_h_class(m, n, n1, w[:2])
        assert c2p.min_var_td(m, n, n1) == td
        assert c2p.min_var_hd(m, n, n1) == hd
        report = c2p.efficiency_report(m, n, n1)
        assert (report.var_td_min, report.var_hd_min) == (td, hd)
        assert report.gap == c2p.variance_gap(m, n, n1)

    @pytest.mark.parametrize("coord", range(4))
    def test_perturbed_weights_lie_above_minimum(self, coord, published_moments):
        m = published_moments
        bumped = list(c2p.optimum_constants(m).weights())
        bumped[coord] += 0.01
        assert c2p.var_t_class(m, PUB_N, PUB_N1, bumped) > c2p.min_var_td(
            m, PUB_N, PUB_N1
        )

    def test_zero_weights_collapse_to_var_r(self, published_moments):
        m = published_moments
        assert c2p.var_t_class(m, PUB_N, PUB_N1, (0, 0, 0, 0)) == c2p.var_r(
            m, PUB_N
        )

    def test_h_class_is_t_class_without_z(self, published_moments):
        m = published_moments
        assert c2p.var_h_class(m, PUB_N, PUB_N1, (0.3, -0.2)) == c2p.var_t_class(
            m, PUB_N, PUB_N1, (0.3, -0.2, 0.0, 0.0)
        )

    def test_difference_class_is_t_class_rescaled(self, published_moments):
        m = published_moments
        rho = m.rho_yx
        cs = (0.3, -0.2, 0.1, 0.05)
        assert c2p.var_difference_class(m, PUB_N, PUB_N1, cs) == pytest.approx(
            c2p.var_t_class(m, PUB_N, PUB_N1, tuple(c / rho for c in cs)),
            rel=1e-12,
        )

    def test_var_r_scales_inversely_with_n(self, published_moments):
        m = published_moments
        assert c2p.var_r(m, 10) == pytest.approx(2 * c2p.var_r(m, 20), rel=1e-15)

    def test_gap_scales_inversely_with_n1(self, published_moments):
        m = published_moments
        assert c2p.variance_gap(m, PUB_N, 25) == pytest.approx(
            2 * c2p.variance_gap(m, PUB_N, 50), rel=1e-12
        )

    def test_equal_phases_remove_first_phase_benefit(self, published_moments):
        m = published_moments
        assert c2p.min_var_hd(m, 25, 25) == c2p.var_r(m, 25)

    def test_vanishing_z_slopes_close_the_gap(self, published_params):
        params = dict(published_params)
        rho = params["rho_yx"]
        params["d_111"] = rho * (params["d_201"] + params["d_021"]) / 2
        params["d_112"] = rho * (params["d_202"] + params["d_022"]) / 2
        m = c2p.moments_from_params(params, delta310_from_delta300=True)
        assert abs(c2p.variance_gap(m, PUB_N, PUB_N1)) < 1e-30
        report = c2p.efficiency_report(m, PUB_N, PUB_N1)
        assert report.pre_td == report.pre_hd


class TestOrderingProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_population_ordering(self, seed):
        frame = c2p.random_population(200, seed=seed)
        m = c2p.population_moments(frame)
        n, n1 = 20, 60
        vr = c2p.var_r(m, n)
        hd = c2p.min_var_hd(m, n, n1)
        td = c2p.min_var_td(m, n, n1)
        assert td <= hd <= vr
        assert c2p.variance_gap(m, n, n1) >= 0.0

    @given(rho=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_normal_moments_ordering(self, rho):
        m = c2p.normal_theory_moments(rho, rho_xz=0.3 * rho, rho_yz=0.5 * rho)
        vr = c2p.var_r(m, 20)
        hd = c2p.min_var_hd(m, 20, 80)
        td = c2p.min_var_td(m, 20, 80)
        assert td <= hd <= vr
        assert c2p.variance_gap(m, 20, 80) >= 0.0


class TestGuards:
    def test_sizes_must_nest(self, published_moments):
        with pytest.raises(InvalidDesign):
            c2p.min_var_td(published_moments, 1, 25)
        with pytest.raises(InvalidDesign):
            c2p.min_var_td(published_moments, 26, 25)

    def test_first_phase_within_population(self, published_moments):
        # N = 80; a table without N (normal theory) leaves n1 unbounded
        m = published_moments
        calls = [
            lambda n1: c2p.min_var_td(m, 10, n1),
            lambda n1: c2p.min_var_hd(m, 10, n1),
            lambda n1: c2p.var_t_class(m, 10, n1, PUB_WEIGHTS),
            lambda n1: c2p.var_h_class(m, 10, n1, PUB_WEIGHTS[:2]),
            lambda n1: c2p.var_difference_class(m, 10, n1, PUB_WEIGHTS),
            lambda n1: c2p.efficiency_report(m, 10, n1),
        ]
        for call in calls:
            with pytest.raises(InvalidDesign, match="n1 <= N"):
                call(81)
            call(80)
        c2p.min_var_td(c2p.normal_theory_moments(0.5), 10, 10**6)

    def test_zero_correlation_has_no_optimum(self):
        m = c2p.normal_theory_moments(0.0)
        with pytest.raises(ZeroCorrelation):
            c2p.optimum_constants(m)
        with pytest.raises(ZeroCorrelation):
            c2p.min_var_td(m, 10, 25)

    def test_missing_moment_is_named_before_zero_correlation(self):
        # the plug-in rule reads the whole table before its masks are read
        m = c2p.normal_theory_moments(0.0)
        m = dataclasses.replace(m, delta={t: v for t, v in m.delta.items() if t != (1, 2, 0)})
        with pytest.raises(MissingParameter, match="d_120"):
            c2p.optimum_constants(m)


def _kurtosis_at(skew, t):
    """Kurtosis whose excess spread is t times the two-point threshold.

    The spread kurt - (skew^2 + 1) equals t * SINGULAR_RTOL * (|kurt| +
    skew^2 + 1) in exact arithmetic, so t < 1 is two-point and t > 1 is not.
    """
    base = skew * skew + 1.0
    return base * (1.0 + t * SINGULAR_RTOL) / (1.0 - t * SINGULAR_RTOL)


_NEAR_ONE = st.one_of(st.floats(0.9, 0.999), st.floats(1.001, 1.1), st.floats(0.999, 1.001))
_R_EDGES = [0.0, -0.0] + [
    s * v
    for s in (1.0, -1.0)
    for v in (ZERO_R_TOL, np.nextafter(ZERO_R_TOL, 0.0), np.nextafter(ZERO_R_TOL, 1.0))
]
_C_EDGES = [5e-324, 1e-300, 1e-170, 1e-150, 1e150, 1e160, 1e300, 1.7e308]


@st.composite
def _moment_row(draw):
    """One moment table with its c_x, c_z and r, at the plug-in rule's edges."""
    row = {t: draw(st.floats(-5.0, 5.0)) for t in WEIGHT_TRIPLES}
    shape = {}
    for skew_t, kurt_t in (((0, 3, 0), (0, 4, 0)), ((0, 0, 3), (0, 0, 4))):
        t = draw(st.one_of(_NEAR_ONE, st.floats(0.0, 1e6)))
        row[kurt_t] = _kurtosis_at(row[skew_t], t)
        shape[kurt_t] = t
    c_x, c_z = (
        draw(st.sampled_from([-1.0, 1.0]))
        * draw(st.one_of(st.sampled_from(_C_EDGES), st.floats(0.05, 5.0)))
        for _ in "xz"
    )
    r = draw(st.one_of(st.sampled_from(_R_EDGES), st.floats(-1.0, 1.0)))
    return row, c_x, c_z, r, shape


class TestPluginRule:
    """_kernels.optimum_weights is the one plug-in rule: the kernel reads
    its masks, analytics._optimum_from_table raises from them."""

    ERRORS = (
        (ZeroCorrelation, "zero correlation"),
        (SingularDenominator, "moment table of x is two-point"),
        (SingularDenominator, "moment table of z is two-point"),
        (SingularDenominator, "weights are not finite"),
    )

    @given(rows=st.lists(_moment_row(), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_array_and_scalar_routes_agree(self, rows):
        table = {t: np.array([row[t] for row, *_ in rows]) for t in WEIGHT_TRIPLES}
        c_x, c_z, r = (np.array(column) for column in list(zip(*rows))[1:4])
        slopes, weights, *masks = _kernels.optimum_weights(
            lambda p, q, m: table[p, q, m], c_x, c_z, r
        )
        masks, constants = np.array(masks), np.array(slopes + weights)
        for i, (row, *_, shape) in enumerate(rows):
            # the spans sit 1e-3 of the threshold or farther from it
            for t, two_point in ((shape[0, 4, 0], masks[1, i]), (shape[0, 0, 4], masks[2, i])):
                if not 0.999 < t < 1.001:
                    assert two_point == (t < 1.0), (i, t)
            try:
                got = analytics._optimum_from_table(
                    lambda p, q, m: row[p, q, m], c_x[i], c_z[i], r[i]
                )
            except Corr2PhaseError as exc:
                assert masks[:, i].any(), i
                error, message = self.ERRORS[int(np.argmax(masks[:, i]))]
                assert type(exc) is error and message in str(exc), (i, exc)
            else:
                assert not masks[:, i].any(), i
                got = np.array(dataclasses.astuple(got))
                np.testing.assert_array_equal(got.view(np.int64), constants[:, i].view(np.int64))


class TestEfficiency:
    def test_pre_baseline_is_hundred(self):
        assert c2p.pre(0.5, 0.5) == 100.0

    def test_pre_ratio(self):
        assert c2p.pre(0.2, 0.1) == pytest.approx(200.0, rel=1e-15)

    def test_pre_rejects_zero_comparison(self):
        with pytest.raises(SingularDenominator):
            c2p.pre(1.0, 0.0)

    def test_report_frozen_values(self, published_moments):
        report = c2p.efficiency_report(published_moments, PUB_N, PUB_N1)
        assert report.n == PUB_N and report.n1 == PUB_N1
        assert report.pre_hd == pytest.approx(PUB_LADDER["pre_hd"], rel=1e-12)
        assert report.pre_td == pytest.approx(PUB_LADDER["pre_td"], rel=1e-12)
        assert report.published is None

    def test_report_efficiency_ordering(self, published_moments):
        report = c2p.efficiency_report(published_moments, PUB_N, PUB_N1)
        assert report.pre_td >= report.pre_hd >= 100.0

    def test_report_discrepancy_notes(self, published_moments, published_params):
        report = c2p.efficiency_report(
            published_moments, PUB_N, PUB_N1, published=published_params["published_pre"]
        )
        assert report.published == published_params["published_pre"]
        notes = "\n".join(report.interpretation_notes)
        assert "not reproducible" in notes
        # The matching baseline entry is confirmed, not flagged.
        assert "PRE[r]=100 matches" in notes

    def test_report_rejects_unknown_published_key(self, published_moments):
        with pytest.raises(InvalidParameter):
            c2p.efficiency_report(
                published_moments, PUB_N, PUB_N1, published={"bogus": 1.0}
            )
