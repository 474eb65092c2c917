"""Generalized KLJN secure key-exchange simulator.

Models the classical physical-layer key exchange where Alice and Bob each
switch one of two noisy resistors onto a shared wire. With four arbitrary
resistances, security holds exactly when the generator variances are chosen
so that the eavesdropper's current variance, voltage variance and
voltage-current cross moment are identical in both line states. This package
solves those variances in closed form, verifies the conditions, and confirms
indistinguishability by Monte-Carlo bit-error-rate estimation.
"""

from .circuit import LineState, NoiseVariances, ResistorQuad
from .errors import InfeasibleConfigError, SingularDenominatorError, ValidationError
from .noise import BOLTZMANN_J_PER_K, effective_temperature, johnson_variance
from .simulation import (
    BerEntry,
    ExchangeResult,
    Indicator,
    SimConfig,
    StatePolicy,
    ber_report,
    estimate_ber,
    histogram,
    run_exchange,
    scatter_trace,
)
from .solver import check_security, solve_variances

__version__ = "0.1.0"

# The names README's "Library use" documents; the rest is importable from its module.
__all__ = [
    "BOLTZMANN_J_PER_K",
    "BerEntry",
    "ExchangeResult",
    "Indicator",
    "InfeasibleConfigError",
    "LineState",
    "NoiseVariances",
    "ResistorQuad",
    "SimConfig",
    "SingularDenominatorError",
    "StatePolicy",
    "ValidationError",
    "ber_report",
    "check_security",
    "effective_temperature",
    "estimate_ber",
    "histogram",
    "johnson_variance",
    "run_exchange",
    "scatter_trace",
    "solve_variances",
]
