"""secrecy221: secrecy capacity of the 2-2-1 Gaussian MIMO wiretap channel.

Computes the channel's secrecy capacity by matching an achievable
beamforming rate against a tightened genie-aided upper bound, verifies the
match with an independent brute-force search, and emits machine-checkable
certificates.
"""

from . import errors, tolerances
from .achievable import BeamSolution, assert_lambda_exceeds_one, beam_rate, null_beam_rate, optimal_beam
from .channel import (
    ChannelClass,
    ChannelKind,
    CovMat,
    MisoChannel,
    WiretapChannel,
    beam_covariance,
    classify,
    gaussian_rate,
    reduce_rank_deficient,
    validate_covariance,
)
from .converse import (
    CapacityCertificate,
    TightCorrelation,
    a_zero_witness,
    capacity_certificate,
    coupling_gain_matrix,
    optimize_alpha,
    theta_of_alpha,
    upper_value,
)
from .oracle import (
    CovParam,
    KKTReport,
    brute_force_gaussian,
    brute_force_upper,
    covariance_from_param,
    kkt_check,
    min_over_a,
    no_nonneg_roots,
    sample_general_channels,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSolution",
    "CapacityCertificate",
    "ChannelClass",
    "ChannelKind",
    "CovMat",
    "CovParam",
    "KKTReport",
    "MisoChannel",
    "TightCorrelation",
    "WiretapChannel",
    "a_zero_witness",
    "assert_lambda_exceeds_one",
    "beam_covariance",
    "beam_rate",
    "brute_force_gaussian",
    "brute_force_upper",
    "capacity_certificate",
    "classify",
    "coupling_gain_matrix",
    "covariance_from_param",
    "errors",
    "gaussian_rate",
    "kkt_check",
    "min_over_a",
    "no_nonneg_roots",
    "null_beam_rate",
    "optimal_beam",
    "optimize_alpha",
    "reduce_rank_deficient",
    "sample_general_channels",
    "theta_of_alpha",
    "tolerances",
    "upper_value",
    "validate_covariance",
]
