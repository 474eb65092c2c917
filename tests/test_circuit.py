import numpy as np
import pytest

from kljn import (
    EmptyInputError,
    LengthMismatchError,
    LineState,
    NoiseVariances,
    ResistorQuad,
    ValidationError,
    line_signals,
    theoretical_moments,
)


@pytest.fixture
def small_quad():
    # only (r_la, r_hb) matter in LH, (r_ha, r_lb) in HL
    return ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=4.0, r_hb=3.0)


class TestResistorQuad:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValidationError):
            ResistorQuad(r_la=bad, r_ha=2.0, r_lb=3.0, r_hb=4.0)

    def test_rejects_equal_pair_per_party(self):
        with pytest.raises(ValidationError):
            ResistorQuad(r_la=5.0, r_ha=5.0, r_lb=1.0, r_hb=2.0)
        with pytest.raises(ValidationError):
            ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=5.0, r_hb=5.0)

    def test_cross_party_equality_is_allowed(self):
        ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=1.0, r_hb=2.0)

    def test_connected_pairs(self, small_quad):
        assert small_quad.connected(LineState.LH) == (1.0, 3.0)
        assert small_quad.connected(LineState.HL) == (2.0, 4.0)


class TestNoiseVariances:
    @pytest.mark.parametrize("bad", [0.0, -0.5, float("inf"), float("nan")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError):
            NoiseVariances(v_la_sq=bad, v_ha_sq=1.0, v_lb_sq=1.0, v_hb_sq=1.0)

    def test_connected_pairs(self):
        v = NoiseVariances(v_la_sq=1.0, v_ha_sq=2.0, v_lb_sq=3.0, v_hb_sq=4.0)
        assert v.connected(LineState.LH) == (1.0, 4.0)
        assert v.connected(LineState.HL) == (2.0, 3.0)


@pytest.mark.parametrize(
    "record, fields",
    [
        (ResistorQuad, ("r_la", "r_ha", "r_lb", "r_hb")),
        (NoiseVariances, ("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq")),
    ],
)
class TestFieldValidation:
    def test_each_field_is_checked_and_named(self, record, fields):
        for index, name in enumerate(fields):
            for bad, problem in (
                (True, "a real number"),
                ("1.0", "a real number"),
                (np.float32(1.0), "a real number"),
                (-1, "positive and finite"),
                (float("nan"), "positive and finite"),
            ):
                values = [1.0, 2.0, 3.0, 4.0]
                values[index] = bad
                with pytest.raises(ValidationError) as excinfo:
                    record(*values)
                assert str(excinfo.value) == f"{name} must be {problem}, got {bad!r}"

    def test_accepts_int_float_and_numpy_float(self, record, fields):
        made = record(1, 2.0, np.float64(3.0), 4)
        assert tuple(getattr(made, name) for name in fields) == (1, 2.0, 3.0, 4)


class TestLineSignals:
    def test_lh_divider(self, small_quad):
        out = line_signals(LineState.LH, small_quad, [1.0], [5.0])
        assert out.i_e.tolist() == [1.0]
        assert out.v_e.tolist() == [2.0]

    def test_sources_are_not_modified(self, small_quad):
        alice, bob = np.array([1.0, -2.0]), np.array([5.0, 0.5])
        line_signals(LineState.HL, small_quad, alice, bob)
        assert alice.tolist() == [1.0, -2.0]
        assert bob.tolist() == [5.0, 0.5]

    def test_lh_divider_reversed_sources(self, small_quad):
        out = line_signals(LineState.LH, small_quad, [5.0], [1.0])
        assert out.i_e.tolist() == [-1.0]
        assert out.v_e.tolist() == [4.0]

    def test_hl_divider(self, small_quad):
        # loop check: v_e = v_alice + i_e*r_ha = 6 - 2 = 4 = v_bob - i_e*r_lb
        out = line_signals(LineState.HL, small_quad, [6.0], [0.0])
        assert out.i_e.tolist() == [-1.0]
        assert out.v_e.tolist() == [4.0]

    def test_zero_sources_give_zero_signals(self, small_quad):
        out = line_signals(LineState.LH, small_quad, np.zeros(16), np.zeros(16))
        assert not out.v_e.any()
        assert not out.i_e.any()

    def test_length_mismatch(self, small_quad):
        with pytest.raises(LengthMismatchError):
            line_signals(LineState.LH, small_quad, [1.0, 2.0], [1.0])

    def test_empty_input(self, small_quad):
        with pytest.raises(EmptyInputError):
            line_signals(LineState.LH, small_quad, [], [])

    def test_non_1d_input(self, small_quad):
        with pytest.raises(ValidationError):
            line_signals(LineState.LH, small_quad, [[1.0]], [[2.0]])

    def test_len(self, small_quad):
        assert len(line_signals(LineState.LH, small_quad, [1.0, 2.0], [3.0, 4.0])) == 2

    @pytest.mark.parametrize("state", list(LineState))
    def test_kirchhoff_identities(self, state, asymmetric_quad):
        rng = np.random.default_rng(101)
        v_a = rng.normal(0.0, 1.0, 500)
        v_b = rng.normal(0.0, 1.2, 500)
        out = line_signals(state, asymmetric_quad, v_a, v_b)
        r_a, r_b = asymmetric_quad.connected(state)
        np.testing.assert_allclose(out.v_e, v_a + out.i_e * r_a, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out.v_e, v_b - out.i_e * r_b, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("state", list(LineState))
    def test_linearity_exact_for_binary_scale(self, state, asymmetric_quad):
        rng = np.random.default_rng(7)
        v_a = rng.normal(0.0, 1.0, 200)
        v_b = rng.normal(0.0, 1.0, 200)
        base = line_signals(state, asymmetric_quad, v_a, v_b)
        for c in (2.0, 0.25, 1024.0):
            scaled = line_signals(state, asymmetric_quad, c * v_a, c * v_b)
            # powers of two scale without rounding
            assert np.array_equal(scaled.v_e, c * base.v_e)
            assert np.array_equal(scaled.i_e, c * base.i_e)

    @pytest.mark.parametrize("state", list(LineState))
    def test_linearity_for_arbitrary_scale(self, state, asymmetric_quad):
        rng = np.random.default_rng(8)
        v_a = rng.normal(0.0, 1.0, 200)
        v_b = rng.normal(0.0, 1.0, 200)
        base = line_signals(state, asymmetric_quad, v_a, v_b)
        c = 0.7318906
        scaled = line_signals(state, asymmetric_quad, c * v_a, c * v_b)
        # near-zero samples cancel, so give the relative check an absolute floor
        np.testing.assert_allclose(scaled.v_e, c * base.v_e, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(scaled.i_e, c * base.i_e, rtol=1e-14, atol=1e-18)


class TestTheoreticalMoments:
    def test_lh_reference_values(self, asymmetric_quad, asymmetric_vars):
        got = theoretical_moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        # independent evaluation of the closed forms for this configuration
        v_la, v_hb = 1.0, 38.0 / 27.0
        d = (1000.0 + 9000.0) ** 2
        assert got.current_variance == pytest.approx((v_la + v_hb) / d, rel=1e-14)
        assert got.voltage_variance == pytest.approx(
            (9000.0**2 * v_la + 1000.0**2 * v_hb) / d, rel=1e-14
        )
        assert got.cross_moment == pytest.approx((1000.0 * v_hb - 9000.0 * v_la) / d, rel=1e-14)
        # the same numbers at display precision
        assert got.current_variance == pytest.approx(2.4074e-8, rel=1e-4)
        assert got.voltage_variance == pytest.approx(0.82407, rel=1e-4)
        assert got.cross_moment == pytest.approx(-7.5926e-5, rel=1e-4)

    def test_hl_with_rounded_rms_values_lands_near_lh(self, asymmetric_quad, asymmetric_vars):
        # plugging the 3-decimal RMS amplitudes back in reproduces the LH
        # triple to within their rounding error
        rounded = NoiseVariances(
            v_la_sq=1.0, v_ha_sq=2.179**2, v_lb_sq=0.816**2, v_hb_sq=1.186**2
        )
        lh = theoretical_moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        hl = theoretical_moments(LineState.HL, asymmetric_quad, rounded)
        assert hl.current_variance == pytest.approx(lh.current_variance, rel=2e-3)
        assert hl.voltage_variance == pytest.approx(lh.voltage_variance, rel=2e-3)
        assert hl.cross_moment == pytest.approx(lh.cross_moment, rel=2e-3)

    def test_states_agree_exactly_when_solved(self, asymmetric_quad, asymmetric_vars):
        lh = theoretical_moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        hl = theoretical_moments(LineState.HL, asymmetric_quad, asymmetric_vars)
        assert hl.current_variance == pytest.approx(lh.current_variance, rel=1e-12)
        assert hl.voltage_variance == pytest.approx(lh.voltage_variance, rel=1e-12)
        assert hl.cross_moment == pytest.approx(lh.cross_moment, rel=1e-12)

    def test_states_disagree_for_thermal_equilibrium(self, asymmetric_quad):
        equilibrium = NoiseVariances(v_la_sq=1.0, v_ha_sq=10.0, v_lb_sq=5.0, v_hb_sq=9.0)
        lh = theoretical_moments(LineState.LH, asymmetric_quad, equilibrium)
        hl = theoretical_moments(LineState.HL, asymmetric_quad, equilibrium)
        assert abs(lh.current_variance - hl.current_variance) > 0.2 * lh.current_variance
