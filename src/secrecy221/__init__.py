"""secrecy221: secrecy capacity of the 2-2-1 Gaussian MIMO wiretap channel.

Computes the channel's secrecy capacity by matching an achievable
beamforming rate against the genie-aided upper bound at its optimized noise
correlation, and emits machine-checkable certificates.  The oracle module
checks the match independently: a solved search over every covariance, and
an exact-arithmetic bracket on the beam.
"""

from .achievable import optimal_beam
from .channel import (
    ChannelKind,
    WiretapChannel,
    classify,
    validate_covariance,
)
from .converse import (
    TightCorrelation,
    a_zero_witness,
    capacity_certificate,
    coupling_gain_matrix,
    optimize_alpha,
)
from .oracle import brute_force_gaussian, sample_general_channels

__version__ = "0.1.0"

__all__ = [
    "ChannelKind",
    "TightCorrelation",
    "WiretapChannel",
    "a_zero_witness",
    "brute_force_gaussian",
    "capacity_certificate",
    "classify",
    "coupling_gain_matrix",
    "optimal_beam",
    "optimize_alpha",
    "sample_general_channels",
    "validate_covariance",
]
