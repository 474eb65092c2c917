"""Exception hierarchy for the KLJN simulation library, and the rules that every
scalar input is checked by: require_int, require_real and require_member.
"""

from __future__ import annotations

import math
import sys

_DOUBLE_MAX = sys.float_info.max


class KljnError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KljnError, ValueError):
    """A value violates a domain-type invariant or an operation precondition."""


class DegenerateInputError(ValidationError):
    """Statistics input lacks the structure required (e.g. only one line state)."""


class GeneratorLayoutError(KljnError):
    """numpy does not have what the noise streams rely on.

    Either its exported C ``random_standard_normal_fill``, which draws them, is
    missing, or probe streams re-keyed in place and drawn through it are not
    those of fresh generators: its Philox state does not have the memory
    layout the streams write, or the function draws other values.
    """


class SingularDenominatorError(KljnError):
    """Alice's two resistances differ by less than SINGULAR_RTOL of the larger.

    The v_hb and v_lb denominators carry their difference as a factor, so the
    solver treats the pair as equal and the resistor set as degenerate.
    """


class InfeasibleConfigError(KljnError):
    """The resistor set admits no positive noise variances.

    Carries which generator variance came out non-positive and its value.
    """

    def __init__(self, variance_name: str, value: float):
        self.variance_name = variance_name
        self.value = value
        super().__init__(
            f"infeasible resistor configuration: {variance_name} = {value:.6g} V**2 "
            "(must be strictly positive)"
        )


def require_int(name: str, value: object, low: float = -math.inf, high: float = math.inf) -> None:
    """Integer rule: ``value`` must be an int, not a bool, in [low, high]; else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        if high < math.inf:
            bounds = f" in [{low}, {high}]"
        else:
            bounds = f" >= {low}" if low > -math.inf else ""
        raise ValidationError(f"{name} must be an integer{bounds}, got {value!r}")


def require_real(*fields: tuple[str, object], allow_zero: bool = False) -> None:
    """Real rule on each (name, value) pair, in order: an int or float, not a bool, finite
    and positive (or zero, where ``allow_zero``); raise ValidationError naming the first
    value that breaks it.

    np.float64 subclasses float and passes; other numpy scalars do not. One call checks a
    whole record, not one call per field. An int beyond the range of a double is not finite.
    """
    for name, value in fields:
        # an exact float, the common case, skips the two isinstance calls
        if type(value) is not float and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        # int-float comparisons are exact and never overflow; NaN and inf fail them
        if not (0 < value <= _DOUBLE_MAX or allow_zero and value == 0):
            sign = "non-negative" if allow_zero else "positive"
            raise ValidationError(f"{name} must be {sign} and finite, got {value!r}")


def require_member(name: str, value: object, kind: type) -> None:
    """Membership rule: ``value`` must be an instance of ``kind``, an enum or a record
    class; else ValidationError."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")
