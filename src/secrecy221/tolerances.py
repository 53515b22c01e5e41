"""Numerical tolerances used across the library.

The underlying results are exact-arithmetic statements; these constants are
the floating-point substitutes.  They are deliberately centralized so tests
and documentation reference one source of truth.
"""

# Unit-norm / identity-product / eigen-residual checks (relative).
EPS_UNIT = 1e-10
EPS_ID = 1e-10
EPS_EIG = 1e-10

# Singularity and positive-semidefiniteness thresholds (absolute, inputs O(1)).
EPS_SING = 1e-12
EPS_PSD = 1e-12

# Open-unit-disk margin for noise correlations.
EPS_NORM = 1e-9

# Full-rank decision on the singular-value ratio of the main channel.
EPS_RANK = 1e-8

# Half-width of the refused band around the degradedness boundary.
EPS_CLASS = 1e-9

# KKT residual threshold.
EPS_KKT = 1e-8

# Relative tightness threshold for the capacity certificate verdict.
EPS_CERT = 1e-9

# Slack on the covariance trace budget (relative to max(1, P)).
EPS_TRACE = 1e-9

# Absolute tolerance on reproducing the unit eigenvalue of the bound matrix.
EIGEN_ONE_TOL = 1e-8

# Tolerance on the unit-coupling identity of the optimized correlation.
UNIT_COUPLING_TOL = 1e-9

# Oracle grid checks: relative agreement with the closed form (and the grid
# winner's unit-rank margin relative to P), the roundoff by which a grid rate
# may exceed the closed-form optimum, and how close the grid must come to the
# best beam on Degraded channels.
EPS_GRID = 1e-3
EPS_GRID_EXCESS = 1e-12
EPS_GRID_BEAM = 1e-9

# Sampled noise correlations stay this far inside the unit circle.
EPS_RIM = 1e-6

# Slack before a power sweep warns that capacity decreased with power.
EPS_MONOTONE = 1e-12

# Supported magnitude range, refused beyond with ValueError.  The rank-one
# pencil solver's B^{-1/2} entries 1 + r v_i^2 cancel to 0 near P ||g||^2 ~ 1e32:
MAX_SNR = 1e30  # bounds P * max(||H||_F^2, ||g||^2)
# Determinants square the squared gains, and the oracle grid squares P;
# either overflows beyond ~1e154:
MAX_GAIN_SQ = 1e150  # bounds max(||H||_F^2, ||g||^2) and P
