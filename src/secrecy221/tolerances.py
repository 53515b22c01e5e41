"""Numerical tolerances used across the library.

The underlying results are exact-arithmetic statements; these constants are
the floating-point substitutes.  They are deliberately centralized so tests
and documentation reference one source of truth.  The degradedness
classification needs none: the capacity is the same Gaussian maximum on
both sides of ||H^{-T} g|| = 1, so the plain sign decides.
"""

# Identity-product / eigen-residual checks (relative).
EPS_ID = 1e-10
EPS_EIG = 1e-10

# Singularity and positive-semidefiniteness thresholds (absolute, inputs O(1)).
EPS_SING = 1e-12
EPS_PSD = 1e-12

# Open-unit-disk margin for noise correlations.
EPS_NORM = 1e-9

# Full-rank decision on the singular-value ratio of the main channel.
EPS_RANK = 1e-8

# Relative tightness threshold for the capacity certificate verdict.
EPS_CERT = 1e-9

# Slack on the covariance trace budget (relative to max(1, P)).
EPS_TRACE = 1e-9

# Absolute tolerance on reproducing the unit eigenvalue of the bound matrix.
EIGEN_ONE_TOL = 1e-8

# Tolerance on the unit-coupling identity of the optimized correlation.
UNIT_COUPLING_TOL = 1e-9

# Oracle search checks: EPS_GRID bounds the relative gap to the closed form,
# the winner's unit-rank margin relative to P and, absolute, how far the
# search may fall below the best beam on Degraded channels, and is the exact
# bracket's relative half-width about the beam's excess; EPS_GRID_EXCESS
# is the roundoff by which the solved search's rate may exceed the
# closed-form optimum, or a lattice rate the solved one.
EPS_GRID = 1e-9
EPS_GRID_EXCESS = 1e-12

# Slack before a power sweep warns that capacity decreased with power.
EPS_MONOTONE = 1e-12

# Supported magnitude range, refused beyond with ValueError.  The rank-one
# pencil solver's B^{-1/2} entries 1 + r v_i^2 cancel to 0 near P ||g||^2 ~ 1e32:
MAX_SNR = 1e30  # bounds P * max(||H||_F^2, ||g||^2)
# Determinants square the squared gains, and the oracle grid squares P;
# either overflows beyond ~1e154:
MAX_GAIN_SQ = 1e150  # bounds max(||H||_F^2, ||g||^2) and P
