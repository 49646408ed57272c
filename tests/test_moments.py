import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corr2phase as c2p
from corr2phase.errors import (
    DegenerateVariable,
    InvalidParameter,
    MissingParameter,
    ZeroMean,
)

# Frozen values from tests/oracles.py (exact rationals + 50-digit sqrt)
# for the six-unit population y=(1,2,3,4,5,9), x=(2,1,4,3,8,6),
# z=(1,3,2,5,4,8).
SIX_SCALARS = {
    "mean_y": 4.0,
    "mean_x": 4.0,
    "mean_z": 23.0 / 6.0,
    "s2_y": 8.0,
    "s2_x": 6.8,
    "s2_z": 37.0 / 6.0,
    "c_y": 0.7071067811865476,
    "c_x": 0.6519202405202649,
    "c_z": 0.6478114967717974,
    "rho_yx": 0.7050239879106326,
    "rho_yz": 0.939666415794974,
    "rho_xz": 0.4941630685459865,
}
SIX_DELTAS = {
    (3, 0, 0): 0.8714212528966688,
    (0, 3, 0): 0.44479485022066195,
    (0, 0, 3): 0.6358612947838337,
    (4, 0, 0): 2.715,
    (0, 4, 0): 1.9204152249134947,
    (0, 0, 4): 2.3950036523009497,
    (2, 1, 0): 0.2520504151250418,
    (1, 2, 0): 0.06834676493307207,
    (2, 2, 0): 0.8294117647058824,
    (1, 3, 0): 0.8709119850660755,
    (3, 1, 0): 1.3503920999211347,
    (2, 0, 1): 0.8124121574136576,
    (0, 2, 1): 0.021623959473347287,
    (1, 1, 1): 0.2432229279628145,
    (2, 0, 2): 2.492972972972973,
    (0, 2, 2): 0.6273449920508744,
    (1, 1, 2): 1.1928243687352864,
    (0, 1, 2): 0.2089066503739085,
    (1, 0, 2): 0.728539569989287,
}


def frame_from(y, x, z):
    return c2p.PopulationFrame(y=np.asarray(y, float), x=np.asarray(x, float), z=np.asarray(z, float))


class TestPopulationMoments:
    def test_six_unit_scalars(self, six_frame):
        m = c2p.population_moments(six_frame)
        for name, expect in SIX_SCALARS.items():
            assert getattr(m, name) == pytest.approx(expect, rel=1e-13), name

    def test_six_unit_delta_table(self, six_frame):
        m = c2p.population_moments(six_frame)
        for triple, expect in SIX_DELTAS.items():
            assert m.d(*triple) == pytest.approx(expect, rel=1e-13), triple

    def test_identity_deltas_exact(self, six_frame):
        m = c2p.population_moments(six_frame)
        assert m.d(2, 0, 0) == 1.0
        assert m.d(0, 2, 0) == 1.0
        assert m.d(0, 0, 2) == 1.0

    def test_correlation_deltas_match_correlations(self, six_frame):
        m = c2p.population_moments(six_frame)
        assert m.d(1, 1, 0) == pytest.approx(m.rho_yx, rel=1e-15)
        assert m.d(1, 0, 1) == pytest.approx(m.rho_yz, rel=1e-15)
        assert m.d(0, 1, 1) == pytest.approx(m.rho_xz, rel=1e-15)

    def test_perfect_correlation_when_y_equals_x(self):
        x = np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0])
        m = c2p.population_moments(frame_from(x, x, [1, 3, 2, 5, 4, 8]))
        assert m.rho_yx == 1.0

    def test_zero_mean_leaves_cv_undefined(self):
        m = c2p.population_moments(
            frame_from([1, 2, 3, 4, 6], [-2, -1, 0, 1, 2], [5, 3, 8, 2, 9])
        )
        assert m.c_x is None
        with pytest.raises(ZeroMean):
            m.require("c_x")
        assert any("mean" in note for note in m.notes)

    def test_frame_validation(self):
        with pytest.raises(InvalidParameter):
            c2p.PopulationFrame(y=np.ones(3), x=np.ones(3), z=np.ones(3))
        with pytest.raises(DegenerateVariable):
            frame_from([5, 5, 5, 5], [1, 2, 3, 4], [4, 3, 2, 1])
        with pytest.raises(InvalidParameter):
            frame_from([1, 2, 3, np.nan], [1, 2, 3, 4], [4, 3, 2, 1])

    def test_kurtosis_skewness_inequality_holds_for_data(self, six_frame):
        m = c2p.population_moments(six_frame)
        assert m.d(0, 4, 0) - m.d(0, 3, 0) ** 2 - 1.0 > 0.0
        assert m.d(0, 0, 4) - m.d(0, 0, 3) ** 2 - 1.0 > 0.0

    @pytest.mark.parametrize(
        "scale, error, name",
        [
            (1e200, InvalidParameter, "S2_x"),  # the squares overflow
            (1e100, InvalidParameter, "d_040"),  # only the fourth powers do
            (1e-100, InvalidParameter, "d_040"),  # sd_x**4 underflows to 0
            (1e-200, DegenerateVariable, "mu_020"),  # the squares underflow
        ],
    )
    def test_float64_edge_is_typed(self, six_frame, scale, error, name):
        frame = frame_from(six_frame.y, six_frame.x * scale, six_frame.z)
        with pytest.raises(error, match=name):
            c2p.population_moments(frame)


class TestParamsDocuments:
    def test_round_trip_is_lossless(self, six_frame):
        m = c2p.population_moments(six_frame)
        again = c2p.moments_from_params(c2p.moments_to_params(m))
        assert again.delta == m.delta
        for field in SIX_SCALARS:
            assert getattr(again, field) == getattr(m, field), field

    def test_published_fixture_loads(self, published_params, published_moments):
        m = published_moments
        assert m.rho_yx == 0.9136
        assert m.d(3, 1, 0) == 0.1301
        assert any("d_310" in note for note in m.notes)

    def test_substitution_flag_without_d300_does_nothing(self):
        m = c2p.moments_from_params({"rho_yx": 0.5}, delta310_from_delta300=True)
        with pytest.raises(MissingParameter):
            m.d(3, 1, 0)

    def test_substitution_flag_keeps_explicit_d310(self):
        m = c2p.moments_from_params(
            {"d_300": 0.1, "d_310": 0.9}, delta310_from_delta300=True
        )
        assert m.d(3, 1, 0) == 0.9
        assert any("no effect" in note for note in m.notes)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameter, match="unrecognized"):
            c2p.moments_from_params({"rho_yx": 0.5, "bogus": 1.0})

    def test_kurtosis_bound_enforced(self):
        with pytest.raises(InvalidParameter):
            c2p.moments_from_params({"d_040": 1.5, "d_030": 1.295})

    def test_rho_delta_contradiction_rejected(self):
        with pytest.raises(InvalidParameter):
            c2p.moments_from_params({"rho_yx": 0.5, "d_110": 0.7})

    def test_boolean_values_rejected(self):
        with pytest.raises(InvalidParameter):
            c2p.moments_from_params({"rho_yx": True})

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(c2p.NonPositiveVariance):
            c2p.moments_from_params({"S2_x": 0.0})

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameter, match="finite"):
            c2p.moments_from_params({"mean_y": 10**400})

    @pytest.mark.parametrize("key", ["N", "n", "n1"])
    def test_size_beyond_float_range_rejected(self, key):
        with pytest.raises(InvalidParameter, match=f"{key} has 401 digits"):
            c2p.moments_from_params({key: 10**400})

    def test_missing_lookup_raises(self):
        m = c2p.moments_from_params({"rho_yx": 0.5})
        with pytest.raises(MissingParameter):
            m.d(2, 2, 0)
        with pytest.raises(MissingParameter):
            m.require("c_x")


class TestNormalTheory:
    def test_independence_case(self):
        m = c2p.normal_theory_moments(0.0)
        assert m.d(2, 2, 0) == 1.0

    def test_half_correlation_closed_forms(self):
        m = c2p.normal_theory_moments(0.5)
        assert m.d(2, 2, 0) == 1.5
        assert m.d(1, 3, 0) == 1.5

    def test_gaussian_kurtosis_and_skewness(self):
        for rho in (0.0, 0.3, 0.9136):
            m = c2p.normal_theory_moments(rho)
            assert m.d(0, 4, 0) == 3.0
            assert m.d(0, 3, 0) == 0.0
            assert m.d(4, 0, 0) == 3.0

    def test_cross_moment_with_z(self):
        m = c2p.normal_theory_moments(0.4, rho_xz=0.5, rho_yz=0.6)
        assert m.d(1, 1, 2) == pytest.approx(0.4 + 2 * 0.6 * 0.5, rel=1e-15)

    def test_invalid_correlation_matrix_rejected(self):
        with pytest.raises(InvalidParameter):
            c2p.normal_theory_moments(0.9, rho_xz=0.9, rho_yz=-0.9)


# Random frames: values spread enough that no variable is constant.
finite_row = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=5,
    max_size=9,
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_population_invariants(data):
    k = data.draw(st.integers(min_value=5, max_value=9))
    spread = np.linspace(0.0, 1.0, k)

    def column():
        vals = data.draw(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=k,
                max_size=k,
            )
        )
        return np.asarray(vals) + spread  # breaks exact-constant columns

    try:
        frame = frame_from(column(), column(), column())
    except DegenerateVariable:
        return
    m = c2p.population_moments(frame)
    assert m.d(2, 0, 0) == 1.0 and m.d(0, 2, 0) == 1.0 and m.d(0, 0, 2) == 1.0
    assert m.d(0, 4, 0) + 1e-9 >= m.d(0, 3, 0) ** 2 + 1.0
    assert abs(m.rho_yx) <= 1.0 + 1e-12
    if m.c_x is not None and m.c_z is not None:
        again = c2p.moments_from_params(c2p.moments_to_params(m))
        assert again.delta == m.delta
        assert math.isclose(again.rho_yx, m.rho_yx, rel_tol=0, abs_tol=0)
