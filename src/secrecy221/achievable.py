"""Lower bound: optimal Gaussian beamforming for the 2-2-1 wiretap channel.

For any unit beam q at full power the secrecy rate is the log of a
generalized Rayleigh quotient,

    rate(q) = (1/2) log [ q^T (I + P H^T H) q / q^T (I + P g g^T) q ],

so the best beam is the top generalized eigenvector and the achievable
secrecy rate is (1/2) log lambda_1.  A beam orthogonal to the eavesdropper
witnesses strict positivity of that rate whenever H is full-rank, which in
turn forces lambda_1 > 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import matkit as mk
from .channel import WiretapChannel
from .errors import InvariantViolated, RankDeficient
from .matkit import Vec2
from .tolerances import EPS_EIG


class BeamSolution(NamedTuple):
    """Optimal beam direction, its generalized eigenvalue, and the rate (nats).

    ``degenerate`` flags a (numerically) tied eigenvalue pair, in which case
    the direction is not unique.
    """

    q_a: Vec2
    lambda1: float
    rate: float
    degenerate: bool


def optimal_beam(ch: WiretapChannel) -> BeamSolution:
    """Solve the beam problem and verify the eigenpair.

    The eigenvector is checked against its fixed-point relation
    (I + P g g^T)^{-1} (I + P H^T H) q = lambda_1 q.  Whether the beam
    reaches the rate (1/2) log lambda_1 is left to the certificate, which
    evaluates the beam's rate exactly (its ``sylvester_rel`` residual).
    Requires a full-rank main channel; works for degraded channels too
    (there it is the best unit-rank strategy rather than the capacity).
    """
    if ch._rank_deficient:
        raise RankDeficient("main channel gain is rank deficient")
    a, b = ch._beam_pencil
    (l1, l2), q1 = ch._beam_eig

    # Fixed-point relation B^{-1} A q = lambda_1 q, verified in the
    # equivalent form A q = lambda_1 B q.  The residual is normalized by
    # the pencil's scale (backward-error style), which neither inherits the
    # conditioning of B^{-1} at large power nor collapses when A q itself
    # is small.
    aq = mk.matvec2(a, q1)
    bq = mk.scale2(l1, mk.matvec2(b, q1))
    scale = max(1.0, mk.fro2(a) + abs(l1) * mk.fro2(b))
    resid = mk.norm2(mk.sub2(aq, bq)) / scale
    if resid > EPS_EIG:
        raise InvariantViolated(
            f"generalized eigenpair fixed-point residual {resid!r}"
        )

    rate = 0.5 * math.log(l1)
    degenerate = (l1 - l2) <= EPS_EIG * max(1.0, abs(l1))
    return BeamSolution(q_a=q1, lambda1=l1, rate=rate, degenerate=degenerate)
