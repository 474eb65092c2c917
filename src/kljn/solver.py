"""Solve generator variances that make the two line states indistinguishable.

Security requires the eavesdropper's current variance, voltage variance and
voltage-current cross moment to be identical in the LH and HL states. Given
the four resistors and one anchor variance, those three conditions fix the
remaining variances uniquely; this module evaluates the closed-form solution
and checks the conditions for arbitrary variance sets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# benchmarks/spans.py traces kljn.solver.theoretical_moments, so the name stays bound here.
from .circuit import NoiseVariances, ResistorQuad, theoretical_moments, wire_moments  # noqa: F401
from .errors import _DOUBLE_MAX, _NORMAL_MIN
from .errors import InfeasibleConfigError, SingularDenominatorError, ValidationError, require_real

# Alice's two resistances closer than SINGULAR_RTOL of the larger are treated as
# equal: the v_hb and v_lb denominators carry their difference as a factor.
SINGULAR_RTOL = 1e-15


class SecurityResiduals(NamedTuple):
    """Mismatch of each observable between the LH and HL states, free of physical scale.

    For current variance I, voltage variance V and cross moment C: |ΔI| / max I,
    |ΔV| / max V and |ΔC| / sqrt(max I * max V), the last on the correlation scale.
    """

    current_residual: float
    voltage_residual: float
    cross_residual: float

    @property
    def worst(self) -> float:
        return max(self)

    def within(self, tolerance: float) -> bool:
        """True when all three residuals are below ``tolerance``."""
        return max(self) < tolerance


def solve_variances(quad: ResistorQuad, v_la_sq: float) -> NoiseVariances:
    """Compute the unique variance set securing ``quad``, anchored at ``v_la_sq``.

    The anchor is the variance of Alice's low-state generator; the other three
    are linear in it, so any other anchor can be had by rescaling afterward.

    Raises SingularDenominatorError when Alice's resistances differ by less than
    SINGULAR_RTOL of the larger; InfeasibleConfigError when a variance is not
    strictly positive: when Alice's and Bob's pairs are ordered differently; and
    ValidationError when a feasible variance, the anchor included, is not a normal
    double (below sys.float_info.min, or infinite), as a subnormal anchor or
    resistances spanning more than about 1e150 can make it. v_hb is computed first,
    and an infeasible set is rejected on its sign before the other variances are
    computed.
    """
    (v_la_sq,) = require_real(("v_la_sq",), v_la_sq)
    # The forms are homogeneous of degree 0 in the resistances, so they are evaluated after
    # an exact power-of-two scaling that puts the largest in [0.5, 1): no product overflows.
    exponent = -math.frexp(max(quad.r_la, quad.r_ha, quad.r_lb, quad.r_hb))[1]
    r_la, r_ha = math.ldexp(quad.r_la, exponent), math.ldexp(quad.r_ha, exponent)
    r_lb, r_hb = math.ldexp(quad.r_lb, exponent), math.ldexp(quad.r_hb, exponent)
    # each gap is one subtraction, exact when the pair is close (Sterbenz lemma)
    alice, bob = r_la - r_ha, r_lb - r_hb
    if abs(alice) < SINGULAR_RTOL * (r_la if r_la > r_ha else r_ha):
        raise SingularDenominatorError(
            f"Alice's resistances {quad.r_la!r} and {quad.r_ha!r} ohm differ by less "
            f"than {SINGULAR_RTOL:g} of the larger; the resistor set is too close to degenerate"
        )
    # Both pairs differ, so each exact variance is non-zero and finite, and its sign is
    # exact even where the value under- or overflowed: -0 and -inf are infeasible. v_hb
    # and v_lb share a sign and v_ha is positive, so v_hb's sign alone decides
    # feasibility, before any range error and before v_ha and v_lb are computed. A zero
    # denominator is a ratio beyond the double range: every variance is taken as +inf,
    # which makes the set a range error even when v_hb is negative.
    la_lb, la_hb = r_la + r_lb, r_la + r_hb
    try:
        v_hb_sq = v_la_sq * ((bob * (r_ha + r_hb)) / (alice * la_lb))
        if math.copysign(1.0, v_hb_sq) < 0 and la_lb * la_hb and alice * la_hb:
            raise InfeasibleConfigError("v_hb_sq", v_hb_sq)
        v_ha_sq = v_la_sq * (((r_ha + r_lb) * (r_ha + r_hb)) / (la_lb * la_hb))
        v_lb_sq = v_la_sq * ((bob * (r_lb + r_ha)) / (alice * la_hb))
    except ZeroDivisionError:
        v_hb_sq = v_ha_sq = v_lb_sq = math.inf
    # A positive variance that is not a normal double (+0, subnormal or +inf) has lost
    # its significant bits or its size.
    if not (
        _NORMAL_MIN <= v_hb_sq <= _DOUBLE_MAX and _NORMAL_MIN <= v_ha_sq <= _DOUBLE_MAX
        and _NORMAL_MIN <= v_lb_sq <= _DOUBLE_MAX and _NORMAL_MIN <= v_la_sq <= _DOUBLE_MAX
    ):
        raise ValidationError(
            f"the variances securing the resistances {quad.r_la!r}, {quad.r_ha!r}, "
            f"{quad.r_lb!r} and {quad.r_hb!r} ohm at v_la_sq = {v_la_sq!r} V**2 "
            "lie outside the range of a double"
        )
    return NoiseVariances(v_la_sq, v_ha_sq, v_lb_sq, v_hb_sq)


def check_security(quad: ResistorQuad, variances: NoiseVariances) -> SecurityResiduals:
    """Measure how far a variance set is from securing the configuration.

    Evaluates the three observables in both states and returns their
    scale-free differences. A configuration is secure when all residuals fall
    below the caller's tolerance; see SecurityResiduals.within. Raises
    ValidationError when the moments leave the range of a double: at 1 V**2,
    for resistances above about 1e154 ohm or below about 1e-154 ohm.
    """
    try:
        i_lh, v_lh, c_lh = wire_moments(quad.r_la, quad.r_hb, variances.v_la_sq, variances.v_hb_sq)
        i_hl, v_hl, c_hl = wire_moments(quad.r_ha, quad.r_lb, variances.v_ha_sq, variances.v_lb_sq)
        i_max = i_lh if i_lh > i_hl else i_hl
        v_max = v_lh if v_lh > v_hl else v_hl
        correlation_scale = i_max * v_max
    except ArithmeticError:  # (r_a + r_b) ** 2 overflowed, or underflowed to 0 and divided
        correlation_scale = math.inf
    if not 0.0 < correlation_scale < math.inf:
        raise ValidationError(f"wire moments of {quad} and {variances} out of range")
    # tuple.__new__ skips the NamedTuple's generated Python-level __new__: the same record
    return tuple.__new__(SecurityResiduals, (
        abs(i_lh - i_hl) / i_max,
        abs(v_lh - v_hl) / v_max,
        abs(c_lh - c_hl) / math.sqrt(correlation_scale),
    ))
