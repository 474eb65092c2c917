"""Solve generator variances that make the two line states indistinguishable.

Security requires the eavesdropper's current variance, voltage variance and
voltage-current cross moment to be identical in the LH and HL states. Given
the four resistors and one anchor variance, those three conditions fix the
remaining variances uniquely; this module evaluates the closed-form solution
and checks the conditions for arbitrary variance sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# benchmarks/spans.py traces kljn.solver.theoretical_moments, so the name stays bound here.
from .circuit import NoiseVariances, ResistorQuad, theoretical_moments, wire_moments  # noqa: F401
from .errors import InfeasibleConfigError, SingularDenominatorError, ValidationError, require_real

# Alice's two resistances closer than SINGULAR_RTOL of the larger are treated as
# equal: the v_hb and v_lb denominators carry their difference as a factor.
SINGULAR_RTOL = 1e-15


@dataclass(frozen=True, slots=True)
class SecurityResiduals:
    """Mismatch of each observable between the LH and HL states, free of physical scale.

    For current variance I, voltage variance V and cross moment C: |ΔI| / max I,
    |ΔV| / max V and |ΔC| / sqrt(max I * max V), the last on the correlation scale.
    """

    current_residual: float
    voltage_residual: float
    cross_residual: float

    @property
    def worst(self) -> float:
        return max(self.current_residual, self.voltage_residual, self.cross_residual)

    def within(self, tolerance: float) -> bool:
        """True when all three residuals are below ``tolerance``."""
        return self.worst < tolerance


def solve_variances(quad: ResistorQuad, v_la_sq: float) -> NoiseVariances:
    """Compute the unique variance set securing ``quad``, anchored at ``v_la_sq``.

    The anchor is the variance of Alice's low-state generator; the other three
    are linear in it, so any other anchor can be had by rescaling afterward.

    Raises SingularDenominatorError when Alice's resistances differ by less than
    SINGULAR_RTOL of the larger; InfeasibleConfigError when a variance is not
    strictly positive: when Alice's and Bob's pairs are ordered differently; and
    ValidationError when a feasible variance lies outside the range of a double,
    as resistances spanning more than about 1e150 can make it.
    """
    require_real(("v_la_sq", v_la_sq))
    # The forms are homogeneous of degree 0 in the resistances, so they are evaluated
    # after an exact power-of-two scaling that puts the largest in [0.5, 1): no product
    # overflows. math.ldexp returns plain floats, so numpy inputs never warn.
    v_la_sq = float(v_la_sq)
    exponent = -math.frexp(max(quad.r_la, quad.r_ha, quad.r_lb, quad.r_hb))[1]
    r_la, r_ha = math.ldexp(quad.r_la, exponent), math.ldexp(quad.r_ha, exponent)
    r_lb, r_hb = math.ldexp(quad.r_lb, exponent), math.ldexp(quad.r_hb, exponent)
    # each gap is one subtraction, exact when the pair is close (Sterbenz lemma)
    alice, bob = r_la - r_ha, r_lb - r_hb
    if abs(alice) < SINGULAR_RTOL * (r_la if r_la > r_ha else r_ha):
        raise SingularDenominatorError(
            f"Alice's resistances {float(quad.r_la)!r} and {float(quad.r_ha)!r} ohm differ by less "
            f"than {SINGULAR_RTOL:g} of the larger; the resistor set is too close to degenerate"
        )
    try:
        v_hb_sq = v_la_sq * ((bob * (r_ha + r_hb)) / (alice * (r_la + r_lb)))
        v_ha_sq = v_la_sq * (((r_ha + r_lb) * (r_ha + r_hb)) / ((r_la + r_lb) * (r_la + r_hb)))
        v_lb_sq = v_la_sq * ((bob * (r_lb + r_ha)) / (alice * (r_la + r_hb)))
    except ZeroDivisionError:  # a denominator underflowed: a ratio beyond the double range
        v_hb_sq = v_ha_sq = v_lb_sq = math.inf
    # Both pairs differ, so each exact variance is non-zero and finite, and its sign,
    # which alone decides feasibility, is exact even where the value under- or
    # overflowed: -0 and -inf are infeasible, +0 and +inf out of the double range.
    for name, value in (("v_hb_sq", v_hb_sq), ("v_ha_sq", v_ha_sq), ("v_lb_sq", v_lb_sq)):
        if not 0.0 < value < math.inf:
            if math.copysign(1.0, value) < 0:
                raise InfeasibleConfigError(name, value)
            raise ValidationError(
                f"the variances securing the resistances {float(quad.r_la)!r}, "
                f"{float(quad.r_ha)!r}, {float(quad.r_lb)!r} and {float(quad.r_hb)!r} ohm "
                f"at v_la_sq = {v_la_sq!r} V**2 lie outside the range of a double"
            )
    return NoiseVariances(v_la_sq, v_ha_sq, v_lb_sq, v_hb_sq)


def check_security(quad: ResistorQuad, variances: NoiseVariances) -> SecurityResiduals:
    """Measure how far a variance set is from securing the configuration.

    Evaluates the three observables in both states and returns their
    scale-free differences. A configuration is secure when all residuals fall
    below the caller's tolerance; see SecurityResiduals.within. Raises
    ValidationError when the moments leave the range of a double.
    """
    i_lh, v_lh, c_lh = wire_moments(quad.r_la, quad.r_hb, variances.v_la_sq, variances.v_hb_sq)
    i_hl, v_hl, c_hl = wire_moments(quad.r_ha, quad.r_lb, variances.v_ha_sq, variances.v_lb_sq)
    i_max = i_lh if i_lh > i_hl else i_hl
    v_max = v_lh if v_lh > v_hl else v_hl
    correlation_scale = i_max * v_max
    if not 0.0 < correlation_scale < math.inf:
        raise ValidationError(f"wire moments {i_max:.3e} A**2, {v_max:.3e} V**2 out of range")
    return SecurityResiduals(
        float(abs(i_lh - i_hl) / i_max),
        float(abs(v_lh - v_hl) / v_max),
        float(abs(c_lh - c_hl) / math.sqrt(correlation_scale)),
    )

