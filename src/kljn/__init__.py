"""Generalized KLJN secure key-exchange simulator.

Models the classical physical-layer key exchange where Alice and Bob each
switch one of two noisy resistors onto a shared wire. With four arbitrary
resistances, security holds exactly when the generator variances are chosen
so that the eavesdropper's current variance, voltage variance and
voltage-current cross moment are identical in both line states. This package
solves those variances in closed form, verifies the conditions, and confirms
indistinguishability by Monte-Carlo bit-error-rate estimation.
"""

from .circuit import (
    LineSignals,
    LineState,
    NoiseVariances,
    ResistorQuad,
    SecondMoments,
    line_signals,
    theoretical_moments,
)
from .errors import (
    DegenerateInputError,
    EmptyInputError,
    GeneratorLayoutError,
    InfeasibleConfigError,
    KljnError,
    LengthMismatchError,
    SingularDenominatorError,
    ValidationError,
)
from .noise import (
    BOLTZMANN_J_PER_K,
    GENERATOR_ALGORITHM,
    StreamSeed,
    effective_temperature,
    gaussian_block,
    johnson_variance,
    stream_id_for,
)
from .simulation import (
    BerEntry,
    ExchangeResult,
    HistogramData,
    Indicator,
    SimConfig,
    StatePolicy,
    ber_report,
    estimate_ber,
    histogram,
    run_exchange,
    scatter_trace,
)
from .solver import (
    Feasibility,
    SecurityResiduals,
    check_security,
    is_feasible,
    solve_variances,
)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN_J_PER_K",
    "GENERATOR_ALGORITHM",
    "BerEntry",
    "DegenerateInputError",
    "EmptyInputError",
    "ExchangeResult",
    "Feasibility",
    "GeneratorLayoutError",
    "HistogramData",
    "Indicator",
    "InfeasibleConfigError",
    "KljnError",
    "LengthMismatchError",
    "LineSignals",
    "LineState",
    "NoiseVariances",
    "ResistorQuad",
    "SecondMoments",
    "SecurityResiduals",
    "SimConfig",
    "SingularDenominatorError",
    "StatePolicy",
    "StreamSeed",
    "ValidationError",
    "ber_report",
    "check_security",
    "effective_temperature",
    "estimate_ber",
    "gaussian_block",
    "histogram",
    "is_feasible",
    "johnson_variance",
    "line_signals",
    "run_exchange",
    "scatter_trace",
    "solve_variances",
    "stream_id_for",
    "theoretical_moments",
]
