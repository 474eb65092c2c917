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
from .errors import InfeasibleConfigError, SingularDenominatorError, ValidationError

# Denominator magnitudes below SINGULAR_RTOL times the sum of their term
# magnitudes are pure cancellation noise, not meaningful values.
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


@dataclass(frozen=True, slots=True)
class Feasibility:
    """Outcome of a feasibility screen: a boolean plus the failure reason."""

    feasible: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


def _singular(name: str, denominator: float, scale: float) -> SingularDenominatorError:
    return SingularDenominatorError(
        f"denominator for {name} is {denominator:.3e} against term scale {scale:.3e}; "
        "the resistor set is too close to degenerate"
    )


def solve_variances(quad: ResistorQuad, v_la_sq: float) -> NoiseVariances:
    """Compute the unique variance set securing ``quad``, anchored at ``v_la_sq``.

    The anchor is the variance of Alice's low-state generator; the other three
    are linear in it, so any other anchor can be had by rescaling afterward.

    Raises SingularDenominatorError for near-degenerate resistor sets and
    InfeasibleConfigError when a computed variance is not strictly positive.
    """
    if not isinstance(v_la_sq, (int, float)) or isinstance(v_la_sq, bool):
        raise ValidationError(f"v_la_sq must be a real number, got {v_la_sq!r}")
    if not v_la_sq > 0:
        raise ValidationError(f"v_la_sq must be positive, got {v_la_sq!r}")
    r_la, r_ha, r_lb, r_hb = quad.r_la, quad.r_ha, quad.r_lb, quad.r_hb
    ha_hb = r_ha * r_hb

    # Each ratio sums three numerator, then three denominator terms left to right; the
    # v_ha terms are all positive, so only the v_hb and v_lb denominators can cancel.
    numerator = r_lb * (r_ha + r_hb) - ha_hb - r_hb**2
    la_sq = r_la**2
    mixed = r_lb * (r_la - r_ha)
    ha_la = r_ha * r_la
    denominator = la_sq + mixed - ha_la
    scale = la_sq + abs(mixed) + ha_la
    if abs(denominator) < SINGULAR_RTOL * scale:
        raise _singular("v_hb_sq", denominator, scale)
    v_hb_sq = v_la_sq * (numerator / denominator)

    v_ha_sq = v_la_sq * (
        (r_ha**2 + r_lb * (r_hb + r_ha) + ha_hb) / (la_sq + r_lb * (r_la + r_hb) + r_hb * r_la)
    )

    numerator = r_lb**2 + r_lb * (r_ha - r_hb) - ha_hb
    mixed = r_la * (r_hb - r_ha)
    denominator = la_sq + mixed - ha_hb
    scale = la_sq + abs(mixed) + ha_hb
    if abs(denominator) < SINGULAR_RTOL * scale:
        raise _singular("v_lb_sq", denominator, scale)
    v_lb_sq = v_la_sq * (numerator / denominator)

    for name, value in (("v_hb_sq", v_hb_sq), ("v_ha_sq", v_ha_sq), ("v_lb_sq", v_lb_sq)):
        if not value > 0:
            raise InfeasibleConfigError(name, value)
    return NoiseVariances(float(v_la_sq), float(v_ha_sq), float(v_lb_sq), float(v_hb_sq))


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


def is_feasible(quad: ResistorQuad, v_la_sq: float) -> Feasibility:
    """Screen a resistor set: can it be secured with positive variances?

    Never raises for solver failures; the reason lands in the diagnostic.
    """
    try:
        solve_variances(quad, v_la_sq)
    except InfeasibleConfigError as exc:
        return Feasibility(False, f"{exc.variance_name} would be {exc.value:.6g} V**2")
    except SingularDenominatorError as exc:
        return Feasibility(False, str(exc))
    return Feasibility(True)
