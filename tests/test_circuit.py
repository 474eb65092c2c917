import dataclasses
import pickle
import sys

import numpy as np
import pytest

from kljn import LineState, NoiseVariances, ResistorQuad, ValidationError
from kljn.circuit import line_signals, superpose, theoretical_moments, wire_moments
from kljn.errors import require_int, require_member

# Python does not write out an int of over 4300 digits; the input rules show its size.
HUGE_INT = 10**5000
HUGE_INT_SHOWN = "an int of 16610 bits"


@pytest.fixture
def small_quad():
    # only (r_la, r_hb) matter in LH, (r_ha, r_lb) in HL
    return ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=4.0, r_hb=3.0)


class TestResistorQuad:
    def test_rejects_equal_pair_per_party(self):
        with pytest.raises(ValidationError):
            ResistorQuad(r_la=5.0, r_ha=5.0, r_lb=1.0, r_hb=2.0)
        with pytest.raises(ValidationError):
            ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=5.0, r_hb=5.0)
        # the pair is compared as stored, as floats: these two ints round to one double
        with pytest.raises(ValidationError, match="Alice's resistors must differ"):
            ResistorQuad(r_la=2**53, r_ha=2**53 + 1, r_lb=1, r_hb=2)

    def test_cross_party_equality_is_allowed(self):
        ResistorQuad(r_la=1.0, r_ha=2.0, r_lb=1.0, r_hb=2.0)

    def test_connected_pairs(self, small_quad):
        assert small_quad.connected(LineState.LH) == (1.0, 3.0)
        assert small_quad.connected(LineState.HL) == (2.0, 4.0)


class TestNoiseVariances:
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
                (0.0, "positive and finite"),
                (float("nan"), "positive and finite"),
                (np.float64("nan"), "positive and finite"),
                (-0.0, "positive and finite"),
                (float("inf"), "positive and finite"),
                (10**400, "positive and finite"),
                (-(10**400), "positive and finite"),
                (HUGE_INT, "positive and finite"),
            ):
                values = [1.0, 2.0, 3.0, 4.0]
                values[index] = bad
                with pytest.raises(ValidationError) as excinfo:
                    record(*values)
                shown = HUGE_INT_SHOWN if bad is HUGE_INT else repr(bad)
                assert str(excinfo.value) == f"{name} must be {problem}, got {shown}"

    def test_accepts_int_float_and_numpy_float(self, record, fields):
        made = record(1, 2.0, np.float64(3.0), 4)
        assert tuple(getattr(made, name) for name in fields) == (1, 2.0, 3.0, 4)
        assert all(type(getattr(made, name)) is float for name in fields)

    def test_accepts_the_ends_of_the_double_range(self, record, fields):
        for index, name in enumerate(fields):
            for edge in (5e-324, sys.float_info.max):
                values = [1.0, 2.0, 3.0, 4.0]
                values[index] = edge
                assert getattr(record(*values), name) == edge

    def test_record_contract(self, record, fields):
        made = record(1.0, 2.0, 3.0, 4.0)
        assert dataclasses.is_dataclass(made) and not hasattr(made, "__dict__")
        assert dataclasses.astuple(made) == (1.0, 2.0, 3.0, 4.0)
        a, b, c, d = fields
        assert repr(made) == f"{record.__name__}({a}=1.0, {b}=2.0, {c}=3.0, {d}=4.0)"
        assert made == record(**{a: 1.0, b: 2.0, c: 3.0, d: 4.0})
        assert hash(made) == hash(record(1.0, 2.0, 3.0, 4.0))
        assert made != record(1.0, 2.0, 3.0, 5.0)
        assert pickle.loads(pickle.dumps(made)) == made
        assert dataclasses.replace(made, **{d: 8.0}) == record(1.0, 2.0, 3.0, 8.0)
        with pytest.raises(ValidationError) as excinfo:
            dataclasses.replace(made, **{b: -1.0})
        assert str(excinfo.value) == f"{b} must be positive and finite, got -1.0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, a, 5.0)


def test_the_int_and_member_rules_show_a_huge_int_by_its_size():
    with pytest.raises(ValidationError) as excinfo:
        require_int("n", HUGE_INT, 0, 10)
    assert str(excinfo.value) == f"n must be an integer in [0, 10], got {HUGE_INT_SHOWN}"
    with pytest.raises(ValidationError) as excinfo:
        require_member("quad", HUGE_INT, ResistorQuad)
    assert str(excinfo.value) == f"quad must be a ResistorQuad, got {HUGE_INT_SHOWN}"
    # a value holding such an int is shown by its type
    with pytest.raises(ValidationError) as excinfo:
        require_member("quad", [HUGE_INT], ResistorQuad)
    assert str(excinfo.value) == "quad must be a ResistorQuad, got a list"


def wire(state, quad, v_a, v_b):
    """superpose's (v_e, i_e) of the sources connected in ``state``, on copies of them."""
    v_a = np.array(v_a, dtype=np.float64)
    v_b = np.array(v_b, dtype=np.float64)
    return superpose(*quad.connected(state), v_a, v_b, np.empty_like(v_a))


def moments(state, quad, variances):
    """wire_moments of the resistances and variances connected in ``state``."""
    return wire_moments(*quad.connected(state), *variances.connected(state))


class TestLineSignals:
    """The wire equations, checked on superpose, which the kernel calls; and the
    contract of line_signals on top of it: its validation, its untouched sources
    and its equality with superpose."""

    def test_lh_divider(self, small_quad):
        v_e, i_e = wire(LineState.LH, small_quad, [1.0], [5.0])
        assert i_e.tolist() == [1.0]
        assert v_e.tolist() == [2.0]

    def test_sources_are_not_modified(self, small_quad):
        alice, bob = np.array([1.0, -2.0]), np.array([5.0, 0.5])
        line_signals(LineState.HL, small_quad, alice, bob)
        assert alice.tolist() == [1.0, -2.0]
        assert bob.tolist() == [5.0, 0.5]

    @pytest.mark.parametrize("state", list(LineState))
    def test_equals_superpose(self, state, asymmetric_quad):
        rng = np.random.default_rng(5)
        v_a, v_b = rng.normal(0.0, 1.0, 300), rng.normal(0.0, 1.0, 300)
        out = line_signals(state, asymmetric_quad, v_a, v_b)
        v_e, i_e = wire(state, asymmetric_quad, v_a, v_b)
        assert np.array_equal(out.v_e, v_e)
        assert np.array_equal(out.i_e, i_e)

    def test_lh_divider_reversed_sources(self, small_quad):
        v_e, i_e = wire(LineState.LH, small_quad, [5.0], [1.0])
        assert i_e.tolist() == [-1.0]
        assert v_e.tolist() == [4.0]

    def test_hl_divider(self, small_quad):
        # loop check: v_e = v_alice + i_e*r_ha = 6 - 2 = 4 = v_bob - i_e*r_lb
        v_e, i_e = wire(LineState.HL, small_quad, [6.0], [0.0])
        assert i_e.tolist() == [-1.0]
        assert v_e.tolist() == [4.0]

    def test_zero_sources_give_zero_signals(self, small_quad):
        v_e, i_e = wire(LineState.LH, small_quad, np.zeros(16), np.zeros(16))
        assert not v_e.any()
        assert not i_e.any()

    def test_length_mismatch(self, small_quad):
        with pytest.raises(ValidationError, match="^alice_source has 2 samples, bob_source has 1$"):
            line_signals(LineState.LH, small_quad, [1.0, 2.0], [1.0])

    def test_empty_input(self, small_quad):
        with pytest.raises(ValidationError, match="^source sample sequences are empty$"):
            line_signals(LineState.LH, small_quad, [], [])

    def test_non_1d_input(self, small_quad):
        with pytest.raises(ValidationError):
            line_signals(LineState.LH, small_quad, [[1.0]], [[2.0]])

    @pytest.mark.parametrize("state", list(LineState))
    def test_kirchhoff_identities(self, state, asymmetric_quad):
        rng = np.random.default_rng(101)
        v_a = rng.normal(0.0, 1.0, 500)
        v_b = rng.normal(0.0, 1.2, 500)
        v_e, i_e = wire(state, asymmetric_quad, v_a, v_b)
        r_a, r_b = asymmetric_quad.connected(state)
        np.testing.assert_allclose(v_e, v_a + i_e * r_a, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(v_e, v_b - i_e * r_b, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("state", list(LineState))
    def test_linearity_exact_for_binary_scale(self, state, asymmetric_quad):
        rng = np.random.default_rng(7)
        v_a = rng.normal(0.0, 1.0, 200)
        v_b = rng.normal(0.0, 1.0, 200)
        base_v_e, base_i_e = wire(state, asymmetric_quad, v_a, v_b)
        for c in (2.0, 0.25, 1024.0):
            v_e, i_e = wire(state, asymmetric_quad, c * v_a, c * v_b)
            # powers of two scale without rounding
            assert np.array_equal(v_e, c * base_v_e)
            assert np.array_equal(i_e, c * base_i_e)

    @pytest.mark.parametrize("state", list(LineState))
    def test_linearity_for_arbitrary_scale(self, state, asymmetric_quad):
        rng = np.random.default_rng(8)
        v_a = rng.normal(0.0, 1.0, 200)
        v_b = rng.normal(0.0, 1.0, 200)
        base_v_e, base_i_e = wire(state, asymmetric_quad, v_a, v_b)
        c = 0.7318906
        v_e, i_e = wire(state, asymmetric_quad, c * v_a, c * v_b)
        # near-zero samples cancel, so give the relative check an absolute floor
        np.testing.assert_allclose(v_e, c * base_v_e, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(i_e, c * base_i_e, rtol=1e-14, atol=1e-18)


class TestTheoreticalMoments:
    """The closed forms of wire_moments, which the solver calls; and
    theoretical_moments, wire_moments of the pair connected in a state."""

    @pytest.mark.parametrize("state", list(LineState))
    def test_is_wire_moments_of_the_connected_pair(self, state, asymmetric_quad, asymmetric_vars):
        got = theoretical_moments(state, asymmetric_quad, asymmetric_vars)
        assert got == moments(state, asymmetric_quad, asymmetric_vars)

    def test_lh_reference_values(self, asymmetric_quad, asymmetric_vars):
        current, voltage, cross = moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        # independent evaluation of the closed forms for this configuration
        v_la, v_hb = 1.0, 38.0 / 27.0
        d = (1000.0 + 9000.0) ** 2
        assert current == pytest.approx((v_la + v_hb) / d, rel=1e-14)
        assert voltage == pytest.approx((9000.0**2 * v_la + 1000.0**2 * v_hb) / d, rel=1e-14)
        assert cross == pytest.approx((1000.0 * v_hb - 9000.0 * v_la) / d, rel=1e-14)
        # the same numbers at display precision
        assert current == pytest.approx(2.4074e-8, rel=1e-4)
        assert voltage == pytest.approx(0.82407, rel=1e-4)
        assert cross == pytest.approx(-7.5926e-5, rel=1e-4)

    def test_hl_with_rounded_rms_values_lands_near_lh(self, asymmetric_quad, asymmetric_vars):
        # plugging the 3-decimal RMS amplitudes back in reproduces the LH
        # triple to within their rounding error
        rounded = NoiseVariances(
            v_la_sq=1.0, v_ha_sq=2.179**2, v_lb_sq=0.816**2, v_hb_sq=1.186**2
        )
        i_lh, v_lh, c_lh = moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        i_hl, v_hl, c_hl = moments(LineState.HL, asymmetric_quad, rounded)
        assert i_hl == pytest.approx(i_lh, rel=2e-3)
        assert v_hl == pytest.approx(v_lh, rel=2e-3)
        assert c_hl == pytest.approx(c_lh, rel=2e-3)

    def test_states_agree_exactly_when_solved(self, asymmetric_quad, asymmetric_vars):
        i_lh, v_lh, c_lh = moments(LineState.LH, asymmetric_quad, asymmetric_vars)
        i_hl, v_hl, c_hl = moments(LineState.HL, asymmetric_quad, asymmetric_vars)
        assert i_hl == pytest.approx(i_lh, rel=1e-12)
        assert v_hl == pytest.approx(v_lh, rel=1e-12)
        assert c_hl == pytest.approx(c_lh, rel=1e-12)

    def test_states_disagree_for_thermal_equilibrium(self, asymmetric_quad):
        equilibrium = NoiseVariances(v_la_sq=1.0, v_ha_sq=10.0, v_lb_sq=5.0, v_hb_sq=9.0)
        i_lh, _, _ = moments(LineState.LH, asymmetric_quad, equilibrium)
        i_hl, _, _ = moments(LineState.HL, asymmetric_quad, equilibrium)
        assert abs(i_lh - i_hl) > 0.2 * i_lh
