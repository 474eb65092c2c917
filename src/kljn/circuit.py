"""Circuit model of the generalized KLJN line.

Two parties each connect one of two resistors (with its noise generator) to a
shared ideal wire. The eavesdropper taps the wire and sees one voltage and one
current. This module holds the data model plus the exact per-sample signal
expressions and their second moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EmptyInputError, LengthMismatchError, ValidationError


class LineState(Enum):
    """Which resistor pair is on the wire for the current bit.

    LH: Alice connects her low resistor, Bob his high one. HL: the converse.
    These are the only two information-carrying states.
    """

    LH = "LH"
    HL = "HL"


def _require_positive_finite(record) -> None:
    """Reject any field of ``record`` that is not a positive, finite real (bools excluded)."""
    for name in record.__slots__:  # the dataclass fields, in order
        value = getattr(record, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value) or value <= 0.0:
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        _require_positive_finite(self)
        if self.r_la == self.r_ha:
            raise ValidationError(f"Alice's resistors must differ, both are {self.r_la} ohm")
        if self.r_lb == self.r_hb:
            raise ValidationError(f"Bob's resistors must differ, both are {self.r_lb} ohm")

    def connected(self, state: LineState) -> tuple[float, float]:
        """(alice_resistance, bob_resistance) on the wire in the given state."""
        if state is LineState.LH:
            return self.r_la, self.r_hb
        return self.r_ha, self.r_lb


@dataclass(frozen=True, slots=True)
class NoiseVariances:
    """Variances (V**2) of the four zero-mean generator voltages.

    All strictly positive: a zero-noise generator degenerates the protocol.
    """

    v_la_sq: float
    v_ha_sq: float
    v_lb_sq: float
    v_hb_sq: float

    def __post_init__(self) -> None:
        _require_positive_finite(self)

    def connected(self, state: LineState) -> tuple[float, float]:
        """(alice_variance, bob_variance) of the sources on the wire."""
        if state is LineState.LH:
            return self.v_la_sq, self.v_hb_sq
        return self.v_ha_sq, self.v_lb_sq


@dataclass(frozen=True, slots=True)
class LineSignals:
    """Wire voltage (V) and current (A) sample series seen by the eavesdropper."""

    v_e: np.ndarray
    i_e: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "v_e", np.asarray(self.v_e, dtype=np.float64))
        object.__setattr__(self, "i_e", np.asarray(self.i_e, dtype=np.float64))
        if self.v_e.shape != self.i_e.shape:
            raise LengthMismatchError(
                f"v_e has shape {self.v_e.shape}, i_e has shape {self.i_e.shape}"
            )

    def __len__(self) -> int:
        return self.v_e.size


class SecondMoments(NamedTuple):
    """Eve's three observable second-order statistics."""

    current_variance: float
    voltage_variance: float
    cross_moment: float


def line_signals(
    state: LineState,
    quad: ResistorQuad,
    alice_source: np.ndarray,
    bob_source: np.ndarray,
) -> LineSignals:
    """Superpose the two connected sources into the signals on the wire.

    The wire is ideal, so a single loop current flows. With the connected pair
    (r_a, r_b) and source samples (v_a, v_b):

        i_e = (v_b - v_a) / (r_a + r_b)
        v_e = (r_b * v_a + r_a * v_b) / (r_a + r_b)

    Current is positive when conventional current flows from Bob's terminal
    toward Alice's. ``alice_source`` must be the generator of Alice's connected
    resistor in ``state`` (low for LH, high for HL) and symmetrically for Bob.

    Raises LengthMismatchError for unequal lengths, EmptyInputError for
    zero-length input.
    """
    v_a = np.array(alice_source, dtype=np.float64)
    v_b = np.array(bob_source, dtype=np.float64)
    if v_a.ndim != 1 or v_b.ndim != 1:
        raise ValidationError("source sample sequences must be one-dimensional")
    if v_a.size != v_b.size:
        raise LengthMismatchError(
            f"alice_source has {v_a.size} samples, bob_source has {v_b.size}"
        )
    if v_a.size == 0:
        raise EmptyInputError("source sample sequences are empty")
    v_e, i_e = superpose(*quad.connected(state), v_a, v_b)
    return LineSignals(v_e=v_e, i_e=i_e)


def superpose(r_a, r_b, v_a: np.ndarray, v_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wire (v_e, i_e) of sources v_a, v_b behind resistances r_a, r_b (see line_signals).

    Elementwise with broadcasting, so per-row resistance columns combine a
    whole block of windows in one call. Works in place to bound memory:
    v_e and i_e are returned in the buffers of v_a and v_b.
    """
    loop_resistance = r_a + r_b
    bob_term = r_a * v_b
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
) -> SecondMoments:
    """Exact second moments of the wire signals in ``state`` (see wire_moments)."""
    return SecondMoments(*wire_moments(*quad.connected(state), *variances.connected(state)))
