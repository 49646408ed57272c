import math

import numpy as np
import pytest

import corr2phase as c2p
from corr2phase.errors import (
    AllSamplesDegenerate,
    ExcessiveSkips,
    InvalidDesign,
    InvalidParameter,
    NonFiniteEstimate,
    TooManySamples,
)
from corr2phase.montecarlo import _aggregate, analytic_variance_for

# Frozen values from the exact-rational enumeration oracle for the
# six-unit population under the N=6, n1=4, n=3 design (60 pairs).
ENUM_MEAN_R = 0.7777180587355177
ENUM_MSE_R = 0.04695820314819682
ENUM_BIAS_R = 0.07269407082488512

CENSUS = c2p.DesignSpec(6, 6, 6)
NESTED = c2p.DesignSpec(6, 4, 3)


@pytest.fixture(scope="module")
def chain_frame():
    return c2p.synthetic_population(500, seed=4)


@pytest.fixture(scope="module")
def chain_design():
    return c2p.DesignSpec(500, 60, 20)


class TestEnumeration:
    def test_frozen_sample_r_distribution(self, six_frame):
        result = c2p.enumerate_exact(six_frame, NESTED, "sample-r")
        assert result.pairs_total == 60
        assert result.pairs_skipped == 0
        assert result.mean_estimate == pytest.approx(ENUM_MEAN_R, rel=1e-12)
        assert result.exact_mse == pytest.approx(ENUM_MSE_R, rel=1e-12)
        assert result.bias == pytest.approx(ENUM_BIAS_R, rel=1e-11)

    def test_census_is_exact(self, six_frame):
        m = c2p.population_moments(six_frame)
        result = c2p.enumerate_exact(six_frame, CENSUS, "sample-r")
        assert result.pairs_total == 1
        assert result.mean_estimate == m.rho_yx
        assert result.exact_mse == 0.0
        assert result.bias == 0.0

    def test_additive_adjustments_leave_the_mean(self, six_frame):
        # Every adjustment ratio has exact design expectation 1, so the
        # enumerated mean of any additive-form estimator matches the
        # plain sample correlation regardless of its constants.
        base = c2p.enumerate_exact(six_frame, NESTED, "sample-r")
        moved = c2p.enumerate_exact(
            six_frame, NESTED, "difference:0.7,-1.3,0.4,2.2"
        )
        assert moved.mean_estimate == pytest.approx(
            base.mean_estimate, rel=1e-13
        )
        assert moved.exact_mse != pytest.approx(base.exact_mse, rel=1e-3)

    def test_pair_budget(self, six_frame):
        with pytest.raises(TooManySamples):
            c2p.enumerate_exact(six_frame, NESTED, "sample-r", cap=10)

    def test_two_point_second_phase_skips_everything(self, six_frame):
        with pytest.raises(AllSamplesDegenerate):
            c2p.enumerate_exact(six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power")

    def test_tied_study_variable_trips_skip_budget(self):
        ties = c2p.PopulationFrame(
            y=np.array([1.0, 1, 1, 1, 2, 3]),
            x=np.array([2.0, 1, 4, 3, 8, 6]),
            z=np.array([1.0, 3, 2, 5, 4, 8]),
        )
        with pytest.raises(ExcessiveSkips):
            c2p.enumerate_exact(ties, NESTED, "sample-r")


class TestSimulation:
    def test_census_replications_are_exact(self, six_frame):
        m = c2p.population_moments(six_frame)
        result = c2p.simulate(six_frame, CENSUS, "sample-r", reps=5, seed=3)
        assert result.mean_estimate == m.rho_yx
        assert result.empirical_mse == 0.0
        assert result.bias == 0.0
        assert result.reps_used == 5

    def test_result_metadata(self, chain_frame, chain_design):
        m = c2p.population_moments(chain_frame)
        result = c2p.simulate(
            chain_frame, chain_design, "sample-r", reps=500, seed=11
        )
        assert result.design == chain_design
        assert result.estimator == "sample-r"
        assert result.seed == 11
        assert result.rho_yx == m.rho_yx
        assert result.reps_requested == 500
        assert result.reps_used + result.reps_skipped == 500
        assert result.analytic_variance == c2p.var_r(m, chain_design.n)
        assert math.isfinite(result.mc_se_mean)
        assert math.isfinite(result.mc_se_mse)

    def test_workers_do_not_change_the_result(self, chain_frame, chain_design):
        # 20000 reps at N=500 spans three chunks, so threads really
        # interleave here.
        runs = [
            c2p.simulate(
                chain_frame,
                chain_design,
                "sample-r",
                reps=20000,
                seed=11,
                workers=k,
            )
            for k in (1, 8)
        ]
        assert runs[0] == runs[1]

    def test_seed_changes_the_result(self, chain_frame, chain_design):
        a = c2p.simulate(chain_frame, chain_design, "sample-r", reps=300, seed=1)
        b = c2p.simulate(chain_frame, chain_design, "sample-r", reps=300, seed=2)
        assert a.mean_estimate != b.mean_estimate

    def test_estimator_spec_instance_accepted(self, six_frame):
        spec = c2p.parse_estimator("t-linear:0,0,0,0")
        by_spec = c2p.simulate(six_frame, NESTED, spec, reps=64, seed=9)
        by_text = c2p.simulate(
            six_frame, NESTED, "t-linear:0,0,0,0", reps=64, seed=9
        )
        assert by_spec == by_text

    def test_all_replications_skipped(self, six_frame):
        with pytest.raises(AllSamplesDegenerate):
            c2p.simulate(
                six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power", reps=50, seed=1
            )

    def test_skip_budget_enforced(self):
        ties = c2p.PopulationFrame(
            y=np.array([1.0, 1, 1, 1, 2, 3]),
            x=np.array([2.0, 1, 4, 3, 8, 6]),
            z=np.array([1.0, 3, 2, 5, 4, 8]),
        )
        with pytest.raises(ExcessiveSkips):
            c2p.simulate(ties, NESTED, "sample-r", reps=400, seed=2)

    def test_skip_reason_labels(self, six_frame):
        try:
            c2p.simulate(
                six_frame, c2p.DesignSpec(6, 4, 2), "td-star:power", reps=50, seed=1
            )
        except AllSamplesDegenerate as exc:
            assert "singular_plugin_constants" in str(exc)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reps": 0, "seed": 1},
            {"reps": 10, "seed": -1},
            {"reps": 10, "seed": 1, "workers": 0},
        ],
    )
    def test_parameter_guards(self, six_frame, kwargs):
        with pytest.raises(InvalidParameter):
            c2p.simulate(six_frame, NESTED, "sample-r", **kwargs)

    def test_design_population_mismatch(self, six_frame):
        with pytest.raises(InvalidDesign):
            c2p.simulate(six_frame, c2p.DesignSpec(7, 4, 3), "sample-r", reps=5, seed=1)

    def test_overflowing_square_is_typed(self):
        # the mean is finite, but the squared error of 1e200 is not
        with pytest.raises(NonFiniteEstimate):
            _aggregate(np.array([1e200, 1.0]), np.zeros(2, np.uint8), 0.5)

    def test_overflowing_enumeration_is_typed(self):
        # The plug-in power estimator reaches 1.3e308 on this design, so
        # the exact sum of the kept values overflows.
        frame = c2p.random_population(16, seed=3)
        with pytest.raises(NonFiniteEstimate, match="overflows"):
            c2p.enumerate_exact(frame, c2p.DesignSpec(16, 8, 4), "td-star:power")


@pytest.fixture(scope="module")
def setting():
    frame = c2p.random_population(200, seed=5)
    return c2p.population_moments(frame), c2p.DesignSpec(200, 60, 20)


class TestAnalyticVarianceWiring:
    def test_fixed_kinds(self, setting):
        m, d = setting
        n, n1 = d.n, d.n1
        expected = {
            "sample-r": c2p.var_r(m, n),
            "chain-ratio": c2p.var_t_class(m, n, n1, (-1.0, -1.0, -1.0, -1.0)),
            "t-linear:0.3,-0.2,0.1,0.05": c2p.var_t_class(
                m, n, n1, (0.3, -0.2, 0.1, 0.05)
            ),
            "h-power:0.3,-0.2": c2p.var_h_class(m, n, n1, (0.3, -0.2)),
            "difference:0.3,-0.2,0.1,0.05": c2p.var_difference_class(
                m, n, n1, (0.3, -0.2, 0.1, 0.05)
            ),
        }
        for text, var in expected.items():
            assert analytic_variance_for(m, d, c2p.parse_estimator(text)) == var

    def test_plugin_kinds_get_the_minimum(self, setting):
        m, d = setting
        for variant in ("power", "ratio", "linear", "inverse"):
            spec = c2p.parse_estimator(f"td-star:{variant}")
            assert analytic_variance_for(m, d, spec) == c2p.min_var_td(
                m, d.n, d.n1
            )

    def test_undefined_variance_is_none(self):
        m = c2p.normal_theory_moments(0.0)
        d = c2p.DesignSpec(200, 60, 20)
        assert analytic_variance_for(m, d, c2p.parse_estimator("td-star:linear")) is None


class TestPopulationFactories:
    def test_synthetic_is_reproducible(self):
        a = c2p.synthetic_population(500, seed=4)
        b = c2p.synthetic_population(500, seed=4)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_synthetic_has_strong_correlation(self):
        m = c2p.population_moments(c2p.synthetic_population(500, seed=4))
        assert 0.85 <= m.rho_yx <= 0.97
        assert m.rho_xz > 0.5

    def test_random_populations_vary(self):
        a = c2p.random_population(200, seed=0)
        b = c2p.random_population(200, seed=1)
        assert not np.array_equal(a.y, b.y)
        assert np.array_equal(a.y, c2p.random_population(200, seed=0).y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_population_supports_the_theory(self, seed):
        frame = c2p.random_population(200, seed=seed)
        m = c2p.population_moments(frame)
        c2p.optimum_constants(m)
        assert c2p.min_var_td(m, 20, 60) > 0.0
