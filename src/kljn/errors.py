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

    Raised as ``InfeasibleConfigError(variance_name, value)``: which generator
    variance came out non-positive, and its value. Both stay in ``args``, so the
    error pickles, and the message is formatted only when it is shown.
    """

    variance_name = property(lambda self: self.args[0])
    value = property(lambda self: self.args[1])

    def __str__(self) -> str:
        return (
            f"infeasible resistor configuration: {self.variance_name} = {self.value:.6g} V**2 "
            "(must be strictly positive)"
        )


def _shown(value: object) -> str:
    """``repr(value)``, or what it is when that fails, as for an int too long to write out."""
    try:
        return repr(value)
    except ValueError:  # sys.get_int_max_str_digits() caps int-to-string conversion
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__}"


def require_int(name: str, value: object, low: float = -math.inf, high: float = math.inf) -> None:
    """Integer rule: ``value`` must be an int, not a bool, in [low, high]; else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        if high < math.inf:
            bounds = f" in [{low}, {high}]"
        else:
            bounds = f" >= {low}" if low > -math.inf else ""
        raise ValidationError(f"{name} must be an integer{bounds}, got {_shown(value)}")


def require_real(names: tuple[str, ...], *values: object) -> None:
    """Real rule on each value, named by ``names`` in the same order: an int or float, not
    a bool, finite and positive; raise ValidationError naming the first value that breaks it.

    Called as ``require_real(("r_la", "r_ha"), r_la, r_ha)``: one call checks a whole record.
    One pass decides the common case, every value an exact float in (0, sys.float_info.max],
    and returns; any other value sends the call through the full rule. np.float64 subclasses
    float and passes; other numpy scalars do not. An int beyond the range of a double is not
    finite.
    """
    for value in values:
        if type(value) is not float or not 0.0 < value <= _DOUBLE_MAX:
            break
    else:
        return
    for name, value in zip(names, values, strict=True):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{name} must be a real number, got {_shown(value)}")
        # int-float comparisons are exact and never overflow; NaN and inf fail them
        if not 0 < value <= _DOUBLE_MAX:
            raise ValidationError(f"{name} must be positive and finite, got {_shown(value)}")


def require_member(name: str, value: object, kind: type) -> None:
    """Membership rule: ``value`` must be an instance of ``kind``, an enum or a record
    class; else ValidationError."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
