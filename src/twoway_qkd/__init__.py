"""Two-way classical post-processing for quantum key distribution.

A numerical toolkit covering the exact error-rate recursions of two-way
distillation rounds, convergence thresholds with a terminal asymmetric CSS
stage, secret-key-rate formulas, and seeded Monte Carlo validation with
attack baselines.
"""

from .channel import (
    PauliChannelParams,
    SIMPLEX_TOL,
    bb84_family,
    sixstate_channel,
)
from .convergence import (
    StepSequence,
    ThresholdResult,
    Trajectory,
    css_key_fraction,
    evolve,
    find_threshold,
    optimize_sequence,
    parse_sequence,
)
from .keyrates import (
    KeyRateReport,
    NumericalError,
    binary_entropy,
    bounds_table,
    inamori_bb84_rate,
    inamori_sixstate_rate,
    rate_threshold,
    shor_preskill_rate,
    two_way_net_rate,
)
from .montecarlo import (
    AttackReport,
    Protocol2Report,
    intercept_resend,
    simulate_protocol2_bits,
)
from .steps import ProtocolClassError, StepKind

__all__ = [
    "AttackReport",
    "KeyRateReport",
    "NumericalError",
    "PauliChannelParams",
    "Protocol2Report",
    "ProtocolClassError",
    "SIMPLEX_TOL",
    "StepKind",
    "StepSequence",
    "ThresholdResult",
    "Trajectory",
    "bb84_family",
    "binary_entropy",
    "bounds_table",
    "css_key_fraction",
    "evolve",
    "find_threshold",
    "inamori_bb84_rate",
    "inamori_sixstate_rate",
    "intercept_resend",
    "optimize_sequence",
    "parse_sequence",
    "rate_threshold",
    "shor_preskill_rate",
    "simulate_protocol2_bits",
    "sixstate_channel",
    "two_way_net_rate",
]

__version__ = "0.1.0"
