"""Circuit model of the generalized KLJN line.

Two parties each connect one of two resistors (with its noise generator) to a
shared ideal wire. The eavesdropper taps the wire and sees one voltage and one
current. This module holds the data model plus the exact per-sample signal
expressions and their second moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError, require_member, require_real


class LineState(Enum):
    """Which resistor pair is on the wire for the current bit.

    LH: Alice connects her low resistor, Bob his high one. HL: the converse.
    These are the only two information-carrying states.
    """

    LH = "LH"
    HL = "HL"


@dataclass(frozen=True, slots=True, init=False)
class ResistorQuad:
    """The four resistances (ohms) of a generalized configuration.

    Alice owns (r_la, r_ha), Bob owns (r_lb, r_hb). Each party's two values
    must differ; equal values would make that party's switch positions
    electrically indistinguishable and carry no bit.
    """

    r_la: float
    r_ha: float
    r_lb: float
    r_hb: float

    # Written out, not generated (as in NoiseVariances): a record costs one call of the real
    # rule and four slot stores, with no __post_init__ hop; screening a quad builds several.
    def __init__(self, r_la: float, r_ha: float, r_lb: float, r_hb: float) -> None:
        require_real(("r_la", "r_ha", "r_lb", "r_hb"), r_la, r_ha, r_lb, r_hb)
        if r_la == r_ha:
            raise ValidationError(f"Alice's resistors must differ, both are {r_la} ohm")
        if r_lb == r_hb:
            raise ValidationError(f"Bob's resistors must differ, both are {r_lb} ohm")
        _store_r_la(self, r_la)
        _store_r_ha(self, r_ha)
        _store_r_lb(self, r_lb)
        _store_r_hb(self, r_hb)

    def connected(self, state: LineState) -> tuple[float, float]:
        """(alice_resistance, bob_resistance) on the wire in the given state."""
        require_member("state", state, LineState)
        if state is LineState.LH:
            return self.r_la, self.r_hb
        return self.r_ha, self.r_lb


@dataclass(frozen=True, slots=True, init=False)
class NoiseVariances:
    """Variances (V**2) of the four zero-mean generator voltages.

    All strictly positive: a zero-noise generator degenerates the protocol.
    """

    v_la_sq: float
    v_ha_sq: float
    v_lb_sq: float
    v_hb_sq: float

    def __init__(self, v_la_sq: float, v_ha_sq: float, v_lb_sq: float, v_hb_sq: float) -> None:
        require_real(
            ("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq"), v_la_sq, v_ha_sq, v_lb_sq, v_hb_sq
        )
        _store_v_la_sq(self, v_la_sq)
        _store_v_ha_sq(self, v_ha_sq)
        _store_v_lb_sq(self, v_lb_sq)
        _store_v_hb_sq(self, v_hb_sq)

    def connected(self, state: LineState) -> tuple[float, float]:
        """(alice_variance, bob_variance) of the sources on the wire."""
        require_member("state", state, LineState)
        if state is LineState.LH:
            return self.v_la_sq, self.v_hb_sq
        return self.v_ha_sq, self.v_lb_sq


# The records are frozen, so __init__ stores each field through its slot descriptor's
# __set__, which bypasses the frozen __setattr__ as object.__setattr__ does, without its
# name lookup.
_store_r_la, _store_r_ha = ResistorQuad.r_la.__set__, ResistorQuad.r_ha.__set__
_store_r_lb, _store_r_hb = ResistorQuad.r_lb.__set__, ResistorQuad.r_hb.__set__
_store_v_la_sq, _store_v_ha_sq = NoiseVariances.v_la_sq.__set__, NoiseVariances.v_ha_sq.__set__
_store_v_lb_sq, _store_v_hb_sq = NoiseVariances.v_lb_sq.__set__, NoiseVariances.v_hb_sq.__set__


@dataclass(frozen=True, slots=True)
class LineSignals:
    """Wire voltage (V) and current (A) sample series seen by the eavesdropper."""

    v_e: np.ndarray
    i_e: np.ndarray


def line_signals(
    state: LineState,
    quad: ResistorQuad,
    alice_source: np.ndarray,
    bob_source: np.ndarray,
) -> LineSignals:
    """Superpose the two connected sources into the signals on the wire (see superpose).

    ``alice_source`` must be the generator of Alice's connected resistor in
    ``state`` (low for LH, high for HL) and symmetrically for Bob. The sources
    are copied, not modified.

    Raises ValidationError for input that is not 1-D, of unequal lengths or empty.
    """
    v_a = np.array(alice_source, dtype=np.float64)
    v_b = np.array(bob_source, dtype=np.float64)
    if v_a.ndim != 1 or v_b.ndim != 1:
        raise ValidationError("source sample sequences must be one-dimensional")
    if v_a.size != v_b.size:
        raise ValidationError(f"alice_source has {v_a.size} samples, bob_source has {v_b.size}")
    if v_a.size == 0:
        raise ValidationError("source sample sequences are empty")
    v_e, i_e = superpose(*quad.connected(state), v_a, v_b, np.empty_like(v_a))
    return LineSignals(v_e=v_e, i_e=i_e)


def superpose(
    r_a, r_b, v_a: np.ndarray, v_b: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Wire (v_e, i_e) of sources v_a, v_b behind the connected resistances r_a, r_b.

    The wire is ideal, so a single loop current flows:

        i_e = (v_b - v_a) / (r_a + r_b)
        v_e = (r_b * v_a + r_a * v_b) / (r_a + r_b)

    Current is positive when conventional current flows from Bob's terminal
    toward Alice's. Elementwise, so one call combines a whole block of windows
    of one state. Allocates no sample array: v_e and i_e are returned in the
    buffers of v_a and v_b, and ``scratch``, shaped like them, is overwritten
    with Bob's term r_a * v_b.
    """
    loop_resistance = r_a + r_b
    bob_term = np.multiply(r_a, v_b, out=scratch)
    v_b -= v_a
    v_b /= loop_resistance
    v_a *= r_b
    v_a += bob_term
    v_a /= loop_resistance
    return v_a, v_b


def wire_moments(r_a, r_b, s_a, s_b) -> tuple[float, float, float]:
    """Exact (current variance, voltage variance, cross moment) on the wire.

    Independent zero-mean sources of variance s_a, s_b sit behind the connected
    resistances r_a, r_b; their independence kills every cross term, which makes
    the closed forms below exact. The cross moment is the mean power flowing from
    Bob's side toward Alice's; it vanishes only in thermal equilibrium.
    """
    d = (r_a + r_b) ** 2
    return (s_a + s_b) / d, (r_b**2 * s_a + r_a**2 * s_b) / d, (r_a * s_b - r_b * s_a) / d


def theoretical_moments(
    state: LineState, quad: ResistorQuad, variances: NoiseVariances
) -> tuple[float, float, float]:
    """wire_moments of the resistances and variances connected in ``state``."""
    return wire_moments(*quad.connected(state), *variances.connected(state))
