import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase import _kernels as kernels
from corr2phase.errors import (
    SKIP_NONPOSITIVE,
    InvalidParameter,
    NonFiniteEstimate,
    NonPositiveRatio,
    ParseError,
    SingularDenominator,
    ZeroCorrelation,
    ZeroMean,
)
from corr2phase.estimators import evaluate_rows

# Frozen plug-in constants from an exact-rational + 50-digit recomputation
# for the six-unit population with first phase (0,1,2,4) and second
# phase (0,1,4).
PINNED_FIRST = (0, 1, 2, 4)
PINNED_SECOND = (0, 1, 4)
PINNED_R = 0.93050085576318984
PINNED_SLOPES = (
    0.21049481999921973,
    0.13416815742397137,
    0.07935994221744776,
    0.03615570476035592,
)
PINNED_WEIGHTS = (
    -0.09346343646150711,
    -0.008325008325008326,
    -0.20471061347594366,
    -0.12569794546538732,
)

CONSTANT_KINDS = {
    "gen-power": 4,
    "h-linear": 2,
    "h-power": 2,
    "t-linear": 4,
    "t-power": 4,
    "difference": 4,
}


def spec_for(kind, fill=0.25):
    """A parseable spec of the given kind, filling constants if needed."""
    if kind in CONSTANT_KINDS:
        return c2p.parse_estimator(
            kind + ":" + ",".join([repr(fill)] * CONSTANT_KINDS[kind])
        )
    return c2p.parse_estimator(kind)


def with_unit_ratios(stats):
    """Statistics forced onto the no-adjustment point.

    The first-phase means and variances are set to the values those
    unit ratios imply, so the bundle stays self-consistent.
    """
    return dataclasses.replace(
        stats,
        u=1.0,
        v=1.0,
        w=1.0,
        a=1.0,
        mean_x_first=stats.mean_x,
        s2_x_first=stats.s2_x,
        mean_z_first=stats.aux.zbar,
        s2_z_first=stats.aux.sz2,
    )


@pytest.fixture(scope="module")
def six_aux(six_frame):
    return c2p.KnownAux(
        zbar=float(np.mean(six_frame.z)),
        sz2=float(np.var(six_frame.z, ddof=1)),
    )


@pytest.fixture(scope="module")
def pinned_stats(six_frame, six_aux):
    sample = c2p.TwoPhaseSample(
        c2p.DesignSpec(6, 4, 3),
        np.array(PINNED_FIRST),
        np.array(PINNED_SECOND),
    )
    return c2p.sample_statistics(six_frame, sample, six_aux)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "sample-r",
            "chain-ratio",
            "gen-power:0.5,0.2,-0.1,0.3",
            "h-linear:-1.5,2.0",
            "h-power:0.5,0.25",
            "t-linear:1.0,2.0,3.0,4.0",
            "t-power:-0.5,0.2,-0.1,0.3",
            "difference:0.1,0.2,0.3,0.4",
            "td-star:power",
            "td-star:ratio",
            "td-star:linear",
            "td-star:inverse",
        ],
    )
    def test_label_round_trip(self, text):
        spec = c2p.parse_estimator(text)
        assert c2p.parse_estimator(spec.label()) == spec

    def test_product_alias(self):
        assert c2p.parse_estimator("td-star:product").kind == "td-star:power"

    def test_kind_registry(self):
        assert len(c2p.ESTIMATOR_KINDS) == 12
        assert set(c2p.PARAMETER_FREE_KINDS) == {
            "sample-r",
            "chain-ratio",
            "td-star:power",
            "td-star:ratio",
            "td-star:linear",
            "td-star:inverse",
        }

    def test_needs_plugin(self):
        for kind in c2p.ESTIMATOR_KINDS:
            assert spec_for(kind).needs_plugin is kind.startswith("td-star:")

    @pytest.mark.parametrize(
        "text",
        [
            "mystery",
            "t-linear:1,2",
            "t-linear:1,2,3,4,5",
            "sample-r:1",
            "td-star",
            "td-star:bogus",
            "h-linear:a,b",
            "t-power",
            "t-power:",
            "t-linear:inf,1,1,1",
            "h-linear:nan,0",
            "h-power:0,1e400",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            c2p.parse_estimator(text)

    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            c2p.EstimatorSpec(kind="mystery")

    def test_spec_rejects_wrong_arity(self):
        with pytest.raises(InvalidParameter):
            c2p.EstimatorSpec(kind="h-linear", constants=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_nonfinite_constants(self, bad):
        with pytest.raises(InvalidParameter):
            c2p.EstimatorSpec(kind="h-linear", constants=(bad, 0.0))

    def test_constants_coerced_to_floats(self):
        spec = c2p.EstimatorSpec(kind="h-linear", constants=(1, 2))
        assert spec.constants == (1.0, 2.0)
        assert all(type(v) is float for v in spec.constants)


class TestUnityCollapse:
    @pytest.mark.parametrize("kind", c2p.ESTIMATOR_KINDS)
    def test_every_kind_returns_r_exactly(self, kind, pinned_stats):
        stats = with_unit_ratios(pinned_stats)
        assert c2p.estimate(spec_for(kind), stats) == stats.r

    @given(
        constants=st.tuples(*[st.floats(-50, 50) for _ in range(4)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_collapse_survives_any_constants(self, constants, pinned_stats):
        stats = with_unit_ratios(pinned_stats)
        for kind in ("gen-power", "t-linear", "t-power", "difference"):
            spec = c2p.EstimatorSpec(kind=kind, constants=constants)
            assert c2p.estimate(spec, stats) == stats.r
        for kind in ("h-linear", "h-power"):
            spec = c2p.EstimatorSpec(kind=kind, constants=constants[:2])
            assert c2p.estimate(spec, stats) == stats.r

    def test_zero_constants_return_r_on_raw_stats(self, pinned_stats):
        spec = c2p.parse_estimator("t-linear:0,0,0,0")
        assert c2p.estimate(spec, pinned_stats) == pinned_stats.r


class TestChainRatio:
    def test_hand_value(self, pinned_stats):
        stats = dataclasses.replace(
            pinned_stats,
            r=0.9,
            mean_x=1.0,
            mean_x_first=2.0,
            mean_z_first=3.0,
            s2_x=2.0,
            s2_x_first=4.0,
            s2_z_first=5.0,
            aux=c2p.KnownAux(zbar=3.0, sz2=5.0),
            u=0.5,
            v=0.5,
            w=1.0,
            a=1.0,
        )
        # 0.9 * 2 * 1 * 2 * 1; raw chain values may exceed 1
        assert c2p.estimate(c2p.parse_estimator("chain-ratio"), stats) == 3.6

    def test_equals_reciprocal_power_form(self, pinned_stats):
        chain = c2p.estimate(c2p.parse_estimator("chain-ratio"), pinned_stats)
        power = c2p.estimate(
            c2p.parse_estimator("gen-power:-1,-1,-1,-1"), pinned_stats
        )
        assert chain == pytest.approx(power, rel=1e-12)

    @pytest.mark.parametrize("field", ["u", "v", "w", "a"])
    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_nonpositive_ratio_rejected(self, field, value, pinned_stats):
        stats = dataclasses.replace(pinned_stats, **{field: value})
        with pytest.raises(NonPositiveRatio):
            c2p.estimate(c2p.parse_estimator("chain-ratio"), stats)

    def test_subnormal_ratio_allowed(self, pinned_stats):
        # The guard is a sign test, not a magnitude floor: a subnormal u
        # passes it, and only the size of r / u decides the outcome.
        spec = c2p.parse_estimator("chain-ratio")
        s = dataclasses.replace(pinned_stats, r=1e-300, u=1e-320)
        value = c2p.estimate(spec, s)
        assert math.isfinite(value)
        assert value == pytest.approx(s.r / s.u / s.w / s.v / s.a, rel=1e-15)
        with pytest.raises(NonFiniteEstimate):
            c2p.estimate(spec, dataclasses.replace(pinned_stats, u=1e-320))


class TestPowerForms:
    def test_gen_power_formula(self, pinned_stats):
        s = pinned_stats
        spec = c2p.parse_estimator("gen-power:0.5,0.2,-0.1,0.3")
        expect = s.r * s.u**0.5 * s.v**0.2 * s.w**-0.1 * s.a**0.3
        assert c2p.estimate(spec, s) == pytest.approx(expect, rel=1e-15)

    def test_t_power_matches_gen_power(self, pinned_stats):
        text = ":0.5,0.2,-0.1,0.3"
        assert c2p.estimate(
            c2p.parse_estimator("t-power" + text), pinned_stats
        ) == c2p.estimate(c2p.parse_estimator("gen-power" + text), pinned_stats)

    def test_h_power_ignores_z_ratios(self, pinned_stats):
        spec = c2p.parse_estimator("h-power:0.5,0.25")
        moved = dataclasses.replace(pinned_stats, w=7.0, a=9.0)
        assert c2p.estimate(spec, moved) == c2p.estimate(spec, pinned_stats)

    def test_negative_base_rejected(self, pinned_stats):
        stats = dataclasses.replace(pinned_stats, u=-0.5)
        with pytest.raises(NonPositiveRatio):
            c2p.estimate(c2p.parse_estimator("gen-power:0.25,0,0,0"), stats)

    def test_zero_exponent_skips_base_guard(self, pinned_stats):
        stats = dataclasses.replace(pinned_stats, u=-0.5)
        spec = c2p.parse_estimator("gen-power:0,0.25,0.25,0.25")
        assert math.isfinite(c2p.estimate(spec, stats))

    def test_overflowing_power_raises_nonfinite(self, pinned_stats):
        # 2.0**5000 leaves float64: a typed error, as simulate skips it
        stats = dataclasses.replace(pinned_stats, u=2.0)
        with pytest.raises(NonFiniteEstimate):
            c2p.estimate(c2p.parse_estimator("t-power:5000,0,0,0"), stats)

    def test_overflowing_plugin_power_raises_nonfinite(self):
        frame = c2p.random_population(12, seed=2)
        design = c2p.DesignSpec(12, 4, 3)
        sample = c2p.draw_two_phase(frame, design, seed=108)
        stats = c2p.sample_statistics(frame, sample, c2p.KnownAux.from_frame(frame))
        with pytest.raises(NonFiniteEstimate):
            c2p.estimate(c2p.parse_estimator("td-star:power"), stats)


class TestLinearForms:
    def test_t_linear_formula(self, pinned_stats):
        s = pinned_stats
        spec = c2p.parse_estimator("t-linear:1.5,-0.5,2.0,0.25")
        expect = s.r * (
            1.0
            + 1.5 * (s.u - 1.0)
            - 0.5 * (s.v - 1.0)
            + 2.0 * (s.w - 1.0)
            + 0.25 * (s.a - 1.0)
        )
        assert c2p.estimate(spec, s) == pytest.approx(expect, rel=1e-15)

    def test_h_linear_ignores_z_ratios(self, pinned_stats):
        spec = c2p.parse_estimator("h-linear:1.5,-0.5")
        moved = dataclasses.replace(pinned_stats, w=7.0, a=9.0)
        assert c2p.estimate(spec, moved) == c2p.estimate(spec, pinned_stats)

    def test_difference_is_additive(self, pinned_stats):
        s = pinned_stats
        spec = c2p.parse_estimator("difference:0.1,0.2,0.3,0.4")
        expect = (
            s.r
            + 0.1 * (s.u - 1.0)
            + 0.2 * (s.v - 1.0)
            + 0.3 * (s.w - 1.0)
            + 0.4 * (s.a - 1.0)
        )
        assert c2p.estimate(spec, s) == pytest.approx(expect, rel=1e-15)

    def test_overflow_raises_nonfinite(self, pinned_stats):
        stats = dataclasses.replace(pinned_stats, u=1e308)
        with pytest.raises(NonFiniteEstimate):
            c2p.estimate(c2p.parse_estimator("t-linear:2,0,0,0"), stats)


class TestPlugInConstants:
    def test_pinned_sample_slopes(self, pinned_stats):
        assert pinned_stats.r == pytest.approx(PINNED_R, rel=1e-14)
        opt = c2p.estimated_optimum_constants(pinned_stats)
        got = (
            opt.slope_mean_x,
            opt.slope_var_x,
            opt.slope_mean_z,
            opt.slope_var_z,
        )
        for g, e in zip(got, PINNED_SLOPES):
            assert g == pytest.approx(e, rel=1e-13)

    def test_pinned_sample_weights(self, pinned_stats):
        opt = c2p.estimated_optimum_constants(pinned_stats)
        for g, e in zip(opt.weights(), PINNED_WEIGHTS):
            assert g == pytest.approx(e, rel=1e-12)

    def test_symmetric_sample_has_vanishing_slopes(self, six_frame, six_aux):
        # (y,x) on units 0..3 is a symmetric pattern, so every sample
        # third moment vanishes and the slopes collapse.
        sample = c2p.TwoPhaseSample(
            c2p.DesignSpec(6, 5, 4), np.arange(5), np.arange(4)
        )
        stats = c2p.sample_statistics(six_frame, sample, six_aux)
        opt = c2p.estimated_optimum_constants(stats)
        for value in (
            opt.slope_mean_x,
            opt.slope_var_x,
            opt.slope_mean_z,
            opt.slope_var_z,
            *opt.weights(),
        ):
            assert abs(value) < 1e-15

    def test_crafted_zero_slopes_give_zero_weights(self, pinned_stats):
        r = pinned_stats.r
        table = {
            (0, 3, 0): 0.0,
            (0, 4, 0): 3.0,
            (2, 1, 0): 0.0,
            (1, 2, 0): 0.0,
            (2, 2, 0): 1.0,
            (1, 3, 0): 2.0 * r,
            (0, 0, 3): 0.0,
            (0, 0, 4): 3.0,
            (2, 0, 1): 0.0,
            (0, 2, 1): 0.0,
            (1, 1, 1): 0.0,
            (2, 0, 2): 1.0,
            (0, 2, 2): 1.0,
            (1, 1, 2): r,
        }
        stats = dataclasses.replace(pinned_stats, delta_hat=table)
        opt = c2p.estimated_optimum_constants(stats)
        assert opt.weights() == (0.0, 0.0, 0.0, 0.0)
        for variant in ("power", "linear", "ratio", "inverse"):
            spec = c2p.parse_estimator(f"td-star:{variant}")
            assert c2p.estimate(spec, stats) == stats.r

    def test_census_plugin_equals_population_optimum(self, census_frame):
        N = census_frame.N
        census = c2p.TwoPhaseSample(
            c2p.DesignSpec(N, N, N), np.arange(N), np.arange(N)
        )
        aux = c2p.KnownAux.from_frame(census_frame)
        stats = c2p.sample_statistics(census_frame, census, aux)
        moments = c2p.population_moments(census_frame)
        assert c2p.estimated_optimum_constants(stats) == c2p.optimum_constants(
            moments
        )

    def test_zero_correlation_rejected(self, pinned_stats):
        stats = dataclasses.replace(pinned_stats, r=0.0)
        with pytest.raises(ZeroCorrelation):
            c2p.estimated_optimum_constants(stats)

    @pytest.mark.parametrize("field", ["c_x_hat", "c_z_hat"])
    def test_undefined_variation_rejected(self, field, pinned_stats):
        stats = dataclasses.replace(pinned_stats, **{field: None})
        with pytest.raises(ZeroMean):
            c2p.estimated_optimum_constants(stats)

    def test_two_point_sample_rejected(self, six_frame, six_aux):
        sample = c2p.TwoPhaseSample(
            c2p.DesignSpec(6, 4, 2), np.array([0, 1, 2, 4]), np.array([0, 4])
        )
        stats = c2p.sample_statistics(six_frame, sample, six_aux)
        with pytest.raises(SingularDenominator):
            c2p.estimated_optimum_constants(stats)


class TestTdStar:
    def test_variants_agree_near_unit_ratios(self, pinned_stats):
        stats = dataclasses.replace(
            pinned_stats, u=1 + 1e-4, v=1 - 1e-4, w=1 + 5e-5, a=1 - 8e-5
        )
        values = [
            c2p.estimate(c2p.parse_estimator(f"td-star:{v}"), stats)
            for v in ("power", "ratio", "linear", "inverse")
        ]
        for left, right in itertools.combinations(values, 2):
            assert abs(left - right) <= 1e-6

    def test_power_variant_uses_plugin_weights(self, pinned_stats):
        s = pinned_stats
        w1, w2, w3, w4 = c2p.estimated_optimum_constants(s).weights()
        expect = s.r * s.u**w1 * s.v**w2 * s.w**w3 * s.a**w4
        got = c2p.estimate(c2p.parse_estimator("td-star:power"), s)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_ratio_variant_denominator_guard(self, pinned_stats):
        beta = c2p.estimated_optimum_constants(pinned_stats).weight_var_x
        stats = dataclasses.replace(pinned_stats, v=1.0 + 2.0 / beta)
        with pytest.raises(SingularDenominator):
            c2p.estimate(c2p.parse_estimator("td-star:ratio"), stats)

    def test_inverse_variant_denominator_guard(self, pinned_stats):
        alpha = c2p.estimated_optimum_constants(pinned_stats).weight_mean_x
        stats = dataclasses.replace(pinned_stats, u=1.0 + 2.0 / alpha)
        with pytest.raises(SingularDenominator):
            c2p.estimate(c2p.parse_estimator("td-star:inverse"), stats)


class TestOptimalEstimator:
    @pytest.mark.parametrize("kind", ["t-linear", "t-power", "gen-power"])
    def test_four_weight_kinds(self, kind, six_frame):
        m = c2p.population_moments(six_frame)
        weights = c2p.optimum_constants(m).weights()
        assert c2p.optimal_estimator(kind, m).constants == weights

    @pytest.mark.parametrize("kind", ["h-linear", "h-power"])
    def test_two_weight_kinds(self, kind, six_frame):
        m = c2p.population_moments(six_frame)
        weights = c2p.optimum_constants(m).weights()
        assert c2p.optimal_estimator(kind, m).constants == weights[:2]

    def test_difference_scales_by_correlation(self, six_frame):
        m = c2p.population_moments(six_frame)
        rho = m.rho_yx
        weights = c2p.optimum_constants(m).weights()
        got = c2p.optimal_estimator("difference", m).constants
        assert got == tuple(rho * w for w in weights)

    @pytest.mark.parametrize("kind", ["sample-r", "chain-ratio", "td-star:power"])
    def test_parameter_free_kinds_rejected(self, kind, six_frame):
        m = c2p.population_moments(six_frame)
        with pytest.raises(InvalidParameter):
            c2p.optimal_estimator(kind, m)


@pytest.fixture(scope="module")
def drawn(six_frame, six_aux):
    first, second = kernels.draw_rows(6, 4, 3, reps=48, seed=7)
    stats = kernels.stats_rows(
        six_frame.y,
        six_frame.x,
        six_frame.z,
        first,
        second,
        six_aux.zbar,
        six_aux.sz2,
    )
    design = c2p.DesignSpec(6, 4, 3)
    scalar = [
        c2p.sample_statistics(
            six_frame,
            c2p.TwoPhaseSample(design, first[t], second[t]),
            six_aux,
        )
        for t in range(first.shape[0])
    ]
    return stats, scalar


class TestVectorAgreement:
    KINDS = [
        "sample-r",
        "chain-ratio",
        "gen-power:0.3,-0.2,0.1,-0.4",
        "h-power:0.3,-0.2",
        "t-linear:1.5,-0.5,2.0,0.25",
        "difference:0.1,0.2,0.3,0.4",
        "td-star:power",
        "td-star:linear",
        "td-star:ratio",
        "td-star:inverse",
    ]

    @pytest.mark.parametrize("text", KINDS)
    def test_rowwise_values_match_scalar(self, text, drawn):
        stats, scalar = drawn
        spec = c2p.parse_estimator(text)
        values, codes = evaluate_rows(spec, stats)
        for t, stats in enumerate(scalar):
            if codes[t] != 0:
                with pytest.raises(c2p.Corr2PhaseError):
                    c2p.estimate(spec, stats)
                continue
            assert values[t] == c2p.estimate(spec, stats), t

    def test_crafted_nonpositive_row(self):
        r, u, v, w, a = 0.9, -0.5, 1.1, 1.2, 0.8
        stats = kernels.PairStats(
            *(np.full((1, 1), c) for c in (r, u, v, w, a, 0.0, 0.0, 0.0, 0.0)),
            flags=np.zeros((1, 1), np.uint8),
        )
        values, codes = evaluate_rows(c2p.parse_estimator("chain-ratio"), stats)
        assert codes[0] == SKIP_NONPOSITIVE
        assert np.isnan(values[0])
