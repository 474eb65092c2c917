"""Exception hierarchy for the KLJN simulation library."""

from __future__ import annotations


class KljnError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KljnError, ValueError):
    """A value violates a domain-type invariant or an operation precondition."""


class LengthMismatchError(ValidationError):
    """Paired sample sequences have different lengths."""


class EmptyInputError(ValidationError):
    """An operation received an empty sample sequence."""


class DegenerateInputError(ValidationError):
    """Statistics input lacks the structure required (e.g. only one line state)."""


class GeneratorLayoutError(KljnError):
    """numpy's Philox state does not have the memory layout the noise streams write."""


class SingularDenominatorError(KljnError):
    """A variance-solver denominator vanished; the resistor set is degenerate."""


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
