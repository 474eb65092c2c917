import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kljn import (
    InfeasibleConfigError,
    LineState,
    NoiseVariances,
    ResistorQuad,
    SingularDenominatorError,
    ValidationError,
    check_security,
    solve_variances,
)
from kljn.circuit import wire_moments
from kljn.solver import SINGULAR_RTOL, SecurityResiduals

RESIDUAL_NAMES = ("current_residual", "voltage_residual", "cross_residual")


def random_feasible_quads(count, seed):
    """Rejection-sample feasible quads with log-uniform resistances."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < count:
        r = np.exp(rng.uniform(np.log(100.0), np.log(100_000.0), 4))
        quad = ResistorQuad(r_la=r[0], r_ha=r[1], r_lb=r[2], r_hb=r[3])
        try:
            solve_variances(quad, 1.0)
        except (InfeasibleConfigError, SingularDenominatorError):
            continue
        quads.append(quad)
    return quads


class TestSolveVariances:
    def test_asymmetric_reference_configuration(self, asymmetric_quad):
        v = solve_variances(asymmetric_quad, 1.0)
        assert v.v_hb_sq == pytest.approx(38.0 / 27.0, rel=1e-15)
        assert v.v_ha_sq == 4.75
        assert v.v_lb_sq == pytest.approx(2.0 / 3.0, rel=1e-15)
        # RMS amplitudes at 3-decimal display precision
        assert math.sqrt(v.v_hb_sq) == pytest.approx(1.186, abs=5e-4)
        assert math.sqrt(v.v_ha_sq) == pytest.approx(2.179, abs=5e-4)
        assert math.sqrt(v.v_lb_sq) == pytest.approx(0.816, abs=5e-4)

    def test_symmetric_pairs_scale_with_resistance(self, symmetric_quad):
        v = solve_variances(symmetric_quad, 1.0)
        assert (v.v_la_sq, v.v_ha_sq, v.v_lb_sq, v.v_hb_sq) == (1.0, 9.0, 1.0, 9.0)

    def test_partially_shared_values(self):
        quad = ResistorQuad(r_la=1000.0, r_ha=5000.0, r_lb=5000.0, r_hb=9000.0)
        v = solve_variances(quad, 1.0)
        assert v.v_hb_sq == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert v.v_ha_sq == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert v.v_lb_sq == 1.0

    def test_infeasible_quad_reports_variance_and_value(self):
        quad = ResistorQuad(r_la=5000.0, r_ha=1000.0, r_lb=1000.0, r_hb=2000.0)
        with pytest.raises(InfeasibleConfigError) as excinfo:
            solve_variances(quad, 1.0)
        assert excinfo.value.variance_name == "v_hb_sq"
        assert excinfo.value.value == -0.125

    def test_near_degenerate_alice_pair_is_singular(self):
        quad = ResistorQuad(
            r_la=1000.0, r_ha=np.nextafter(1000.0, np.inf), r_lb=2000.0, r_hb=3000.0
        )
        with pytest.raises(SingularDenominatorError):
            solve_variances(quad, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_rejects_bad_anchor(self, asymmetric_quad, bad):
        # the anchor is checked first, so an infeasible quad gives the same error
        infeasible = ResistorQuad(r_la=5000.0, r_ha=1000.0, r_lb=1000.0, r_hb=2000.0)
        for quad in (asymmetric_quad, infeasible):
            with pytest.raises(ValidationError):
                solve_variances(quad, bad)

    def test_homogeneous_in_anchor_exact_for_binary_factors(self, asymmetric_quad):
        base = solve_variances(asymmetric_quad, 1.0)
        for c in (2.0, 0.5, 4096.0):
            scaled = solve_variances(asymmetric_quad, c * 1.0)
            assert scaled.v_la_sq == c * base.v_la_sq
            assert scaled.v_ha_sq == c * base.v_ha_sq
            assert scaled.v_lb_sq == c * base.v_lb_sq
            assert scaled.v_hb_sq == c * base.v_hb_sq

    def test_homogeneous_in_anchor_for_arbitrary_factors(self, asymmetric_quad):
        base = solve_variances(asymmetric_quad, 1.0)
        c = 3.7219
        scaled = solve_variances(asymmetric_quad, c)
        assert scaled.v_ha_sq == pytest.approx(c * base.v_ha_sq, rel=1e-15)
        assert scaled.v_lb_sq == pytest.approx(c * base.v_lb_sq, rel=1e-15)
        assert scaled.v_hb_sq == pytest.approx(c * base.v_hb_sq, rel=1e-15)

    def test_resistance_scale_invariance(self, asymmetric_quad):
        base = solve_variances(asymmetric_quad, 1.0)
        for factor, tolerance in ((8.0, 0.0), (0.0321, 1e-12)):
            scaled_quad = ResistorQuad(
                r_la=factor * asymmetric_quad.r_la,
                r_ha=factor * asymmetric_quad.r_ha,
                r_lb=factor * asymmetric_quad.r_lb,
                r_hb=factor * asymmetric_quad.r_hb,
            )
            scaled = solve_variances(scaled_quad, 1.0)
            for name in ("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq"):
                got, want = getattr(scaled, name), getattr(base, name)
                if tolerance:
                    assert got == pytest.approx(want, rel=tolerance)
                else:
                    assert got == want

    def test_round_trip_on_random_feasible_quads(self):
        for quad in random_feasible_quads(1000, seed=42):
            residuals = check_security(quad, solve_variances(quad, 1.0))
            assert residuals.within(1e-10), (quad, residuals)

    def test_matches_direct_linear_system_solution(self):
        # independent route: solve the 3x3 linear system built from the
        # equal-statistics conditions instead of the closed forms
        for quad in random_feasible_quads(50, seed=9):
            d_lh = (quad.r_la + quad.r_hb) ** 2
            d_hl = (quad.r_ha + quad.r_lb) ** 2
            # unknowns ordered (v_hb_sq, v_ha_sq, v_lb_sq)
            matrix = np.array(
                [
                    [1.0 / d_lh, -1.0 / d_hl, -1.0 / d_hl],
                    [quad.r_la**2 / d_lh, -quad.r_lb**2 / d_hl, -quad.r_ha**2 / d_hl],
                    [quad.r_la / d_lh, quad.r_lb / d_hl, -quad.r_ha / d_hl],
                ]
            )
            rhs = np.array([-1.0 / d_lh, -quad.r_hb**2 / d_lh, quad.r_hb / d_lh])
            v_hb, v_ha, v_lb = np.linalg.solve(matrix, rhs)
            got = solve_variances(quad, 1.0)
            assert got.v_hb_sq == pytest.approx(v_hb, rel=1e-9)
            assert got.v_ha_sq == pytest.approx(v_ha, rel=1e-9)
            assert got.v_lb_sq == pytest.approx(v_lb, rel=1e-9)


def exact_solve(quad, v_la_sq):
    """The closed forms as expanded sums of products, in exact rational arithmetic.

    Returns (v_ha, v_lb, v_hb) as Fractions: the values the solver's factored
    forms must round to. Raises ZeroDivisionError when Alice's pair is equal.
    """
    r_la, r_ha, r_lb, r_hb = (Fraction(r) for r in (quad.r_la, quad.r_ha, quad.r_lb, quad.r_hb))
    v_la = Fraction(v_la_sq)
    v_ha = v_la * (r_ha**2 + r_lb * (r_hb + r_ha) + r_ha * r_hb) / (
        r_la**2 + r_lb * (r_la + r_hb) + r_hb * r_la
    )
    v_lb = v_la * (r_lb**2 + r_lb * (r_ha - r_hb) - r_ha * r_hb) / (
        r_la**2 + r_la * (r_hb - r_ha) - r_ha * r_hb
    )
    v_hb = v_la * (r_lb * (r_ha + r_hb) - r_ha * r_hb - r_hb**2) / (
        r_la**2 + r_lb * (r_la - r_ha) - r_ha * r_la
    )
    return v_ha, v_lb, v_hb


def outcome(quad, v_la_sq):
    """Solved variances, or the raised error's type, fields and message."""
    try:
        v = solve_variances(quad, v_la_sq)
    except (InfeasibleConfigError, SingularDenominatorError) as exc:
        fields = (exc.variance_name, exc.value) if isinstance(exc, InfeasibleConfigError) else ()
        return type(exc), fields, str(exc)
    return v.v_la_sq, v.v_ha_sq, v.v_lb_sq, v.v_hb_sq


class TestSolverMatchesReference:
    def pinned_quads(self):
        rng = np.random.default_rng(2015)
        quads = [ResistorQuad(*r) for r in 10.0 ** rng.uniform(2.0, 7.0, size=(1000, 4))]
        # near-degenerate Alice pairs, one to four ulps apart, either side of Bob's
        for r_la, r_lb, r_hb in 10.0 ** rng.uniform(2.0, 7.0, size=(40, 3)):
            r_ha = r_la
            for _ in range(int(rng.integers(1, 5))):
                r_ha = math.nextafter(r_ha, math.inf)
            quads.append(ResistorQuad(r_la, r_ha, r_lb, r_hb))
        # the squares of these leave the double range; the ratios do not
        quads.append(ResistorQuad(1e200, 2e200, 3e200, 4e200))
        quads.append(ResistorQuad(1e-200, 2e-200, 3e-200, 4e-200))
        return quads

    def test_values_and_errors_match_the_reference(self):
        kinds = set()
        for quad in self.pinned_quads():
            alice = Fraction(quad.r_la) - Fraction(quad.r_ha)
            bob = Fraction(quad.r_lb) - Fraction(quad.r_hb)
            for v_la_sq in (1.0, 1e-20):
                got = outcome(quad, v_la_sq)
                kind = got[0] if isinstance(got[0], type) else "solved"
                kinds.add(kind)
                if abs(alice) < Fraction(SINGULAR_RTOL) * Fraction(max(quad.r_la, quad.r_ha)):
                    assert kind is SingularDenominatorError, (quad, got)
                    assert repr(float(quad.r_la)) in got[2] and repr(float(quad.r_ha)) in got[2]
                elif alice * bob < 0:
                    assert kind is InfeasibleConfigError, (quad, got)
                    assert got[1][0] == "v_hb_sq" and got[1][1] < 0, (quad, got)
                else:
                    assert got[0] == v_la_sq, (quad, got)
                    # at most eight rounded operations stand between each value and the exact one
                    for value, exact in zip(got[1:], exact_solve(quad, v_la_sq)):
                        assert abs(Fraction(value) - exact) <= 8 * math.ulp(exact), (quad, got)
        assert kinds == {"solved", InfeasibleConfigError, SingularDenominatorError}

    def test_numpy_inputs_give_plain_floats_of_the_same_value(self):
        for quad in self.pinned_quads():
            as_numpy = ResistorQuad(*np.array([quad.r_la, quad.r_ha, quad.r_lb, quad.r_hb]))
            got = outcome(as_numpy, 1.0)
            assert got == outcome(quad, 1.0)
            if not isinstance(got[0], type):
                assert all(type(v) is float for v in got), got


class TestVariancesOutsideTheDoubleRange:
    # feasible quads whose exact variances are about 2e-400 (v_hb and v_lb) and 2.5e399
    # (v_ha) times the anchor: the first underflowed to 0, the second divided by 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("resistors", [(1e200, 1, 2, 1), (1, 1e200, 1, 2)], ids=str)
    def test_feasible_quads_raise_one_range_error(self, resistors, kind):
        quad = ResistorQuad(*(kind(r) for r in resistors))
        with pytest.raises(ValidationError, match="outside the range of a double"):
            solve_variances(quad, kind(1.0))

    def test_an_anchor_that_takes_a_variance_out_of_the_range(self, asymmetric_quad):
        # v_ha = 4.75 v_la overflows; v_hb = 2.8e-4 v_la of a close Bob pair underflows to 0
        close_bob = ResistorQuad(1000.0, 10_000.0, 5000.0, 5001.0)
        for quad, v_la_sq in ((asymmetric_quad, 1e308), (close_bob, 5e-324)):
            with pytest.raises(ValidationError, match="outside the range of a double"):
                solve_variances(quad, v_la_sq)

    def test_subnormal_variances_are_outside_the_range(self, asymmetric_quad):
        # at 5e-324 the solved v_lb and v_hb rounded to 5e-324, exactly 3.3e-324 and 7.0e-324
        for v_la_sq in (5e-324, 1e-310):
            with pytest.raises(ValidationError, match="outside the range of a double"):
                solve_variances(asymmetric_quad, v_la_sq)
        # an exact negative sign is still infeasible
        with pytest.raises(InfeasibleConfigError):
            solve_variances(ResistorQuad(5000.0, 1000.0, 1000.0, 2000.0), 5e-324)
        solved = solve_variances(asymmetric_quad, 1e-300)
        assert min(solved.v_ha_sq, solved.v_lb_sq, solved.v_hb_sq) >= sys.float_info.min

    def test_infeasible_quads_stay_infeasible(self):
        # the exact signs decide: v_hb underflows to -0
        with pytest.raises(InfeasibleConfigError) as excinfo:
            solve_variances(ResistorQuad(1e200, 1, 1, 2), 1.0)
        assert excinfo.value.variance_name == "v_hb_sq"
        assert math.copysign(1.0, excinfo.value.value) == -1.0

    def test_an_infeasible_set_whose_v_ha_overflows_is_infeasible(self):
        # v_ha is about 1.2e307 times the anchor and overflows to inf; v_hb is about -0.33
        # times it, and its value is the one carried
        quad = ResistorQuad(1e-153, 1.0, 2e-153, 1e-153)
        with pytest.raises(InfeasibleConfigError) as excinfo:
            solve_variances(quad, 1e10)
        assert excinfo.value.variance_name == "v_hb_sq"
        assert excinfo.value.value == pytest.approx(-1e10 / 3, rel=1e-12)

    def test_an_infeasible_set_with_a_zero_denominator_is_a_range_error(self):
        # Alice's pair and Bob's are ordered differently, so v_hb is negative, but one
        # denominator, a product of two gaps or sums near 1e-170, underflows to 0: v_hb's,
        # v_ha's and v_lb's in turn. The ratio then lies beyond the double range.
        for resistors in (
            (2e-170, 1e-170, 1e-170, 1.0),
            (1e-170, 1.0, 2e-170, 1e-170),
            (1e-170, 2e-170, 1.0, 1e-170),
        ):
            with pytest.raises(ValidationError, match="outside the range of a double"):
                solve_variances(ResistorQuad(*resistors), 1.0)

    def test_subnormal_resistances_solve(self):
        # the largest is scaled into [0.5, 1) by itself, so no scale factor overflows
        unit = solve_variances(ResistorQuad(1.0, 2.0, 3.0, 4.0), 1.0)
        tiny = ResistorQuad(2.0**-1060, 2.0**-1059, 3 * 2.0**-1060, 2.0**-1058)
        assert solve_variances(tiny, 1.0) == unit


class TestCheckSecurity:
    def test_solved_configuration_passes(self, asymmetric_quad, asymmetric_vars):
        residuals = check_security(asymmetric_quad, asymmetric_vars)
        assert residuals.within(1e-12)
        assert residuals.worst >= 0.0

    def test_thermal_equilibrium_fails_on_current(self, asymmetric_quad):
        equilibrium = NoiseVariances(v_la_sq=1.0, v_ha_sq=10.0, v_lb_sq=5.0, v_hb_sq=9.0)
        residuals = check_security(asymmetric_quad, equilibrium)
        assert residuals.current_residual == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert not residuals.within(1e-9)
        # a named tuple: each field by name and by position, in RESIDUAL_NAMES order
        assert residuals._fields == RESIDUAL_NAMES
        assert tuple(residuals) == tuple(getattr(residuals, name) for name in RESIDUAL_NAMES)
        assert residuals[0] == residuals.current_residual
        assert residuals.worst == residuals.voltage_residual == max(
            residuals.current_residual, residuals.voltage_residual, residuals.cross_residual
        )
        # within is strict: a tolerance equal to the worst residual fails
        assert not residuals.within(residuals.worst)
        assert residuals.within(math.nextafter(residuals.worst, math.inf))
        for name in RESIDUAL_NAMES:
            with pytest.raises(AttributeError):
                setattr(residuals, name, 0.0)

    def test_symmetric_pairs_have_zero_cross_moment(self, symmetric_quad):
        variances = NoiseVariances(v_la_sq=1.0, v_ha_sq=9.0, v_lb_sq=1.0, v_hb_sq=9.0)
        residuals = check_security(symmetric_quad, variances)
        assert residuals.within(1e-12)
        for state in LineState:
            _, _, cross = wire_moments(
                *symmetric_quad.connected(state), *variances.connected(state)
            )
            assert cross == 0.0

    def test_symmetric_specialization_on_random_quads(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            low, high = np.exp(rng.uniform(np.log(100.0), np.log(100_000.0), 2))
            if low == high:
                continue
            quad = ResistorQuad(r_la=low, r_ha=high, r_lb=low, r_hb=high)
            v = solve_variances(quad, 1.0)
            assert v.v_ha_sq / v.v_la_sq == pytest.approx(high / low, rel=1e-12)
            assert v.v_hb_sq == pytest.approx(v.v_ha_sq, rel=1e-12)
            # cross moment vanishes up to rounding of the variance ratio
            _, _, cross = wire_moments(*quad.connected(LineState.LH), *v.connected(LineState.LH))
            scale = high * v.v_la_sq / (low + high) ** 2
            assert abs(cross) < 1e-12 * scale

    def test_item3_set_fails_at_johnson_scale_as_at_lab_scale(self):
        # voltage variance and cross moment match in both states, the current
        # variance does not; an absolute floor used to PASS it at 1e-20 V**2
        quad = ResistorQuad(r_la=1e6, r_ha=1e7, r_lb=5e6, r_hb=9e6)
        for scale in (1.0, 1e-20):
            variances = NoiseVariances(*(scale * v for v in (1.0, 4.59, 0.72, 2.0)))
            residuals = check_security(quad, variances)
            assert residuals.current_residual == pytest.approx(16 / 75, rel=1e-12)
            assert residuals.voltage_residual < 1e-15
            assert residuals.cross_residual < 1e-15
            assert not residuals.within(1e-9)

    def test_classic_symmetric_solution_passes(self):
        # the LH cross moment rounds to -9.5e-22 against an exact 0 in HL,
        # which used to read as a relative cross mismatch of 1
        quad = ResistorQuad(
            r_la=42362.95641714836, r_ha=81083.9104213523,
            r_lb=42362.95641714836, r_hb=81083.9104213523,
        )
        residuals = check_security(quad, solve_variances(quad, 1.0))
        assert residuals.cross_residual < 1e-15
        assert residuals.within(1e-10)

    def test_residuals_are_plain_floats(self, asymmetric_quad):
        as_numpy = ResistorQuad(*np.array([1000.0, 10_000.0, 5000.0, 9000.0]))
        variances = NoiseVariances(*np.array([1.0, 10.0, 5.0, 9.0]))
        residuals = check_security(as_numpy, variances)
        assert all(type(getattr(residuals, name)) is float for name in RESIDUAL_NAMES)
        assert type(residuals.worst) is float
        assert residuals == check_security(
            asymmetric_quad, NoiseVariances(1.0, 10.0, 5.0, 9.0)
        )
        # the NamedTuple itself, built by value as by its own constructor
        assert type(residuals) is SecurityResiduals
        assert list(residuals._asdict()) == list(RESIDUAL_NAMES)
        assert residuals == SecurityResiduals(*residuals)
        assert pickle.loads(pickle.dumps(residuals)) == residuals
        assert residuals.worst == max(residuals) > 0.0
        assert residuals.within(math.nextafter(residuals.worst, math.inf))
        assert not residuals.within(residuals.worst)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("resistances", "variances", "real"),
        [
            ((1000, 10_000, 5000, 9000), [1e-320 * v for v in (1, 2, 3, 4)], float),
            ((1000, 10_000, 5000, 9000), [1e300 * v for v in (1, 2, 3, 4)], float),
            # (r_a + r_b) ** 2 overflows at 1e200 ohm and underflows to 0 at 1e-200 ohm
            *(
                ([s * r for r in (1, 2, 3, 4)], (1, 2, 3, 4), real)
                for s in (1e200, 1e-200)
                for real in (float, np.float64)
            ),
        ],
        ids=[
            "1e-320", "1e+300", "1e+200-float", "1e+200-float64", "1e-200-float", "1e-200-float64"
        ],
    )
    def test_moments_outside_double_range_are_rejected(self, resistances, variances, real):
        quad = ResistorQuad(*map(real, resistances))
        with pytest.raises(ValidationError, match="out of range"):
            check_security(quad, NoiseVariances(*map(real, variances)))


PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda e: 10.0**e)


resistances = log_uniform(2.0, 7.0)
variances_v2 = log_uniform(-20.0, 0.0)


class TestCheckSecurityProperties:
    @PROPERTY_SETTINGS
    @given(
        r=st.tuples(resistances, resistances, resistances, resistances),
        v=st.tuples(variances_v2, variances_v2, variances_v2, variances_v2),
        a=log_uniform(-25.0, 25.0),
        b=log_uniform(-4.0, 4.0),
    )
    def test_residuals_do_not_depend_on_physical_scale(self, r, v, a, b):
        assume(r[0] != r[1] and r[2] != r[3])
        base = check_security(ResistorQuad(*r), NoiseVariances(*v))
        for scaled in (
            check_security(ResistorQuad(*r), NoiseVariances(*(a * x for x in v))),
            check_security(ResistorQuad(*(b * x for x in r)), NoiseVariances(*v)),
        ):
            for name in RESIDUAL_NAMES:
                assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-12)
            assert scaled.within(1e-9) == base.within(1e-9)

    @PROPERTY_SETTINGS
    @given(
        r=st.tuples(resistances, resistances, resistances),
        gap=log_uniform(-14.0, 0.0).filter(lambda gap: gap < 1.0),
        v_la_sq=st.sampled_from([1.0, 1e-20]),
        symmetric=st.booleans(),
    )
    def test_solved_sets_pass(self, r, gap, v_la_sq, symmetric):
        r_la, r_lb, r_hb = r
        assume(r_lb != r_hb)
        # Alice's pair is `gap` apart relative to the larger, ordered like Bob's pair
        # so that a secure set exists
        r_ha = r_la * (1.0 - gap) if r_lb > r_hb else r_la / (1.0 - gap)
        if symmetric:
            r_lb, r_hb = r_la, r_ha
        quad = ResistorQuad(r_la, r_ha, r_lb, r_hb)
        residuals = check_security(quad, solve_variances(quad, v_la_sq))
        assert residuals.within(1e-10), (quad, residuals)
