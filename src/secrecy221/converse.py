"""Upper bound: the correlated-noise genie construction and the capacity certificate.

Handing the eavesdropper's observation to the receiver turns the channel
into a degraded one whose secrecy capacity upper-bounds the original.  The
bound depends on the (otherwise irrelevant) cross-correlation a between the
two noises, through

    U(S, a) = (1/2) log [ det(I_3 + N^{-1} Hbar S Hbar^T) / (1 + g^T S g) ],

where N is the joint noise covariance and Hbar stacks H on top of g^T.
At a unit-rank S = P q q^T both determinants are scalars (the matrix
determinant lemma), which is how the certificate evaluates it.
Restricting a to the family H^{-T}(alpha q_perp + g) collapses the bound's
gain matrix to H^T H + theta(alpha) q_perp q_perp^T with
theta(alpha) = alpha^2 / (1 - ||a||^2).  The reciprocal 1/theta is a concave
quadratic in 1/alpha, so its maximizer alpha* is explicit; at alpha* the
coupling identity g^T A(a*)^{-1} g = 1 holds, the maximizing covariance is
again unit-rank, and the bound matrix has spectrum {lambda_1, 1}.  The
certificate records every identity residual along the way and declares the
bounds matched only when all of them hold.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from . import matkit as mk
from . import oracle
from .achievable import BeamSolution, optimal_beam
from .channel import ChannelKind, WiretapChannel, classify
from .errors import (
    ConverseError,
    DegenerateDirection,
    InvariantViolated,
    MatrixError,
    NoiseDegenerate,
    PreconditionFailed,
    RankDeficient,
)
from .matkit import Mat2, Vec2
from .tolerances import (
    EIGEN_ONE_TOL,
    EPS_CERT,
    EPS_EIG,
    EPS_GRID_EXCESS,
    EPS_ID,
    EPS_NORM,
    EPS_SING,
    UNIT_COUPLING_TOL,
)

LOG2 = math.log(2.0)

# The lattice that witnesses the oracle's solved search on Degraded channels.
_DEGRADED_GRID = (512, 512)


class TightCorrelation(NamedTuple):
    """The optimized member of the correlation family.

    a_star = H^{-T}(alpha_star q_perp + g), theta_star = alpha_star^2 /
    (1 - ||a_star||^2), and A_star = H^T H + theta_star q_perp q_perp^T.
    Flipping the sign of q_perp flips alpha_star but leaves theta_star,
    a_star, and A_star unchanged.
    """

    alpha_star: float
    theta_star: float
    a_star: Vec2
    A_star: Mat2
    q_perp: Vec2


class CapacityCertificate(NamedTuple):
    """Outcome of running both bounds on one channel.

    ``lower`` and ``upper`` are unclamped nats.  ``residuals`` maps identity
    names to their numerical residuals; the verdict is Tight only when the
    bound gap and every residual are within tolerance.  Degraded and
    rank-deficient channels get verdict Inapplicable together with the
    appropriate alternative computation (recorded in ``flags``) and no
    upper bound: only a General certificate that completes the tight path
    sets ``upper``.
    """

    kind: ChannelKind
    lower: float
    upper: float | None
    lambda1: float | None
    eigenvalues_of_bound: tuple[float, float] | None
    residuals: dict[str, float]
    verdict: str
    capacity_nats: float
    capacity_bits: float
    beam: BeamSolution | None
    correlation: TightCorrelation | None
    flags: dict[str, Any]


# Residual names -> pass thresholds: the only gates on the identities the
# certificate records.  The bound gap takes the certificate tolerance.
# sylvester_rel measures the rate identity exactly: the beam's exact rate
# against (1/2) log lambda_1.  It keeps the name of the Sylvester twin it
# replaced, because the benchmark's NotTight attribution reads it.
# three_path_u_rel compares the genie bound's two rank-one routes at the
# beam, N^{-1} and A(a): both are sums of non-negative terms, so it measures
# whether the formulas agree, not how much a determinant cancelled.
RESIDUAL_TOLERANCES: dict[str, float] = {
    "a_star_norm": 1.0 - EPS_NORM,
    "unit_coupling": UNIT_COUPLING_TOL,
    "eigen_one_abs": EIGEN_ONE_TOL,
    "eigen_lambda1_rel": EPS_EIG,
    "sylvester_rel": EPS_ID,
    "three_path_u_rel": EPS_ID,
    # The q_1 identities re-measure theta* consistency and carry its
    # conditioning, so they share the absolute tier of the eigen checks.
    "q_one_coupling": EIGEN_ONE_TOL,
    "q_one_fixed_point": EIGEN_ONE_TOL,
    "a_zero_norm": math.nextafter(1.0, 0.0),  # ||a_0|| < 1 strictly
    "a_zero_orth": EPS_ID,
}


def optimize_alpha(ch: WiretapChannel, q_perp: Vec2) -> TightCorrelation:
    """Pick the correlation that makes the genie bound tight.

    The stationary point of the quadratic 1/theta(1/alpha) is

        1/alpha* = g^T W q_perp / (1 - g^T W g),

    which is the unique maximizer of 1/theta since the quadratic's leading
    coefficient -(g^T W g - 1) is negative on non-degraded channels
    (g^T W g > 1, checked here for direct callers).  theta* is computed once,
    directly at alpha*; the certificate's residual table judges it through
    the coupling, spectrum and q_1 identities.  Only the failures that would
    break the arithmetic downstream raise: an unbounded alpha* and
    ||a*|| not inside the unit disk.
    """
    w = ch._w
    gwg = mk.quad2(w, ch.g)
    if not gwg > 1.0:
        raise PreconditionFailed(
            f"g^T (H^T H)^{{-1}} g = {gwg!r} must exceed 1 on a General channel"
        )
    gwq = mk.dot2(ch.g, mk.matvec2(w, q_perp))
    if abs(gwq) <= EPS_SING * max(1.0, gwg):
        raise DegenerateDirection(
            "g^T (H^T H)^{-1} q_perp = 0: the optimizing alpha is unbounded"
        )
    inv_alpha = gwq / (1.0 - gwg)
    alpha_star = 1.0 / inv_alpha

    a_star = mk.matvec2(ch._ht_inv, mk.add2(mk.scale2(alpha_star, q_perp), ch.g))
    a_norm = mk.norm2(a_star)
    if not a_norm < 1.0 - EPS_NORM:
        raise InvariantViolated(f"||a*|| = {a_norm!r} is not inside the unit disk")

    theta = alpha_star * alpha_star / (1.0 - mk.dot2(a_star, a_star))
    a_mat = mk.matadd2(ch._gram, mk.matscale2(theta, mk.outer2(q_perp, q_perp)))
    return TightCorrelation(alpha_star, theta, a_star, a_mat, q_perp)


def a_zero_witness(ch: WiretapChannel, q_a: Vec2) -> tuple[Vec2, float]:
    """The explicit family member a_0 = (g^T q_a / ||H q_a||^2) H q_a.

    Its norm |g^T q_a| / ||H q_a|| is below 1 exactly because the optimal
    beam beats the eavesdropper (lambda_1 > 1), and H^T a_0 - g is
    orthogonal to q_a, which certifies membership in the alpha family.
    Returns (a_0, |q_a^T (H^T a_0 - g)|); the certificate gates both facts.
    """
    hq = mk.matvec2(ch.H, q_a)
    hq2 = mk.dot2(hq, hq)
    if hq2 <= 0.0:
        raise RankDeficient("H q_a = 0: main channel is rank deficient")
    coeff = mk.dot2(ch.g, q_a) / hq2
    a0 = mk.scale2(coeff, hq)
    return a0, abs(mk.dot2(q_a, mk.sub2(mk.matvec2(mk.transpose2(ch.H), a0), ch.g)))


def coupling_gain_matrix(ch: WiretapChannel, a: Vec2) -> Mat2:
    """A(a) = H^T H + (H^T a - g)(H^T a - g)^T / (1 - ||a||^2).

    Defined for a strictly inside the unit disk; any other a, NaN and inf
    entries included, raises NoiseDegenerate.
    """
    a_norm = mk.norm2(a)
    if not a_norm < 1.0 - EPS_NORM:
        raise NoiseDegenerate(f"||a|| = {a_norm!r} is not < 1")
    k = 1.0 - mk.dot2(a, a)
    v = mk.sub2(mk.matvec2(mk.transpose2(ch.H), a), ch.g)
    return mk.matadd2(ch._gram, mk.matscale2(1.0 / k, mk.outer2(v, v)))


def _upper_value_detail(ch: WiretapChannel, q: Vec2, a: Vec2) -> tuple[float, float]:
    """The genie bound at S = P q q^T (the full-power beam for a unit q) by
    two routes, each a scalar by the matrix determinant lemma.

    Route 1, the defining N^{-1} form, is det(I_3 + N^{-1} Hbar S Hbar^T) =
    1 + P (||H q||^2 + t^2 / k) with t = a^T H q - g^T q and
    k = 1 - ||a||^2; route 2, with the collapsed gain matrix the oracle's
    exact bracket decides, is det(I + A(a) S) = 1 + P q^T A(a) q.  Returns
    (route-1 value, relative disagreement).
    """
    gain = coupling_gain_matrix(ch, a)  # the unit-disk gate: k > 0 below
    hq = mk.matvec2(ch.H, q)
    gq = mk.dot2(ch.g, q)
    t = mk.dot2(a, hq) - gq
    num_1 = 1.0 + ch.P * (mk.dot2(hq, hq) + t * t / (1.0 - mk.dot2(a, a)))
    num_2 = 1.0 + ch.P * mk.quad2(gain, q)
    den = 1.0 + ch.P * gq * gq
    # Route 1 and den are sums of non-negative terms; a float quadratic form
    # of the PSD A(a) is not provably >= 0.
    if not num_2 > 0.0:
        raise InvariantViolated(f"genie bound: route_2 = {num_2!r} is not positive")
    u1 = 0.5 * (math.log(num_1) - math.log(den))
    u2 = 0.5 * (math.log(num_2) - math.log(den))
    return u1, abs(u1 - u2) / max(1.0, abs(u1))


def _upper_bound_max_detail(
    ch: WiretapChannel, tc: TightCorrelation
) -> tuple[float, tuple[float, float], dict[str, float]]:
    """The genie bound's maximum at the tight correlation: (1/2) log of the top
    eigenvalue of (I + P g g^T)^{-1}(I + P H^T H + P theta* q_perp q_perp^T),
    the spectrum, and the residuals the certificate gates."""
    a_rayleigh, b = ch._beam_pencil
    abar = mk.matadd2(
        a_rayleigh, mk.matscale2(ch.P * tc.theta_star, mk.outer2(tc.q_perp, tc.q_perp))
    )
    lmax, lmin = mk.gen_eigvals2_rank1(abar, ch._beam_factor)
    (lam1, _), _ = ch._beam_eig

    # The second eigenvector: q_1 = -theta* (H^T H - g g^T)^{-1} q_perp,
    # normalized against q_perp and fixed by the bound matrix.  Residuals
    # are scaled by the magnitude of the resolvent product, which is the
    # accuracy this construction can achieve near the degradedness boundary.
    minv = ch._resolvent_inv
    q1 = mk.scale2(-tc.theta_star, mk.matvec2(minv, tc.q_perp))
    q1_scale = max(1.0, abs(tc.theta_star) * mk.fro2(minv))
    coupling = abs(mk.dot2(q1, tc.q_perp) - 1.0) / q1_scale
    # q_1 is fixed by the bound matrix: Abar q_1 = B q_1, checked as a
    # backward-error residual against the pencil's scale.
    aq1 = mk.matvec2(abar, q1)
    bq1 = mk.matvec2(b, q1)
    fixed = mk.norm2(mk.sub2(aq1, bq1)) / max(
        1.0, (mk.fro2(abar) + mk.fro2(b)) * mk.norm2(q1)
    )

    resid = {
        "eigen_lambda1_rel": abs(lmax - lam1) / max(1.0, abs(lam1)),
        "eigen_one_abs": abs(lmin - 1.0),
        "q_one_coupling": coupling,
        "q_one_fixed_point": fixed,
    }
    return 0.5 * math.log(lmax), (lmax, lmin), resid


def _certificate_verdict(residuals: dict[str, float], eps_cert: float) -> str:
    tight = residuals["bound_gap_rel"] <= eps_cert and all(
        residuals[n] <= tol for n, tol in RESIDUAL_TOLERANCES.items()
    )
    return "Tight" if tight else "NotTight"


def _inapplicable(
    kind: ChannelKind,
    value: float,
    lambda1: float,
    beam: BeamSolution | None,
    flags: dict[str, Any],
) -> CapacityCertificate:
    """Certificate of a channel the tight construction does not cover: no upper bound."""
    return CapacityCertificate(
        kind=kind,
        lower=value,
        upper=None,
        lambda1=lambda1,
        eigenvalues_of_bound=None,
        residuals={},
        verdict="Inapplicable",
        capacity_nats=value,
        capacity_bits=value / LOG2,
        beam=beam,
        correlation=None,
        flags=flags,
    )


def capacity_certificate(
    ch: WiretapChannel, eps_cert: float = EPS_CERT
) -> CapacityCertificate:
    """Run both bounds and certify whether they coincide.

    General channels take the tight path: optimal beam, optimized
    correlation, closed-form bound maximum, and the full battery of identity
    residuals; the verdict is Tight only if upper and lower agree to
    eps_cert (relative) and every residual passes.  The value is
    (1/2) log lambda_1, and its rate identity ``sylvester_rel`` compares it
    with the printed beam's rate, (1/2) log1p of the beam's excess ratio
    computed exactly from the float inputs (``oracle._beam_excess``).
    Degraded channels report their secrecy capacity, the best Gaussian rate
    over every covariance, with no beam direction solved for: the oracle's
    solved search (``degraded_formula: solved``), at least (1/2) log
    lambda_1 of the beam pencil (I + P H^T H, I + P g g^T); InvariantViolated
    if that beam rate or a ``flags.grid`` lattice point beats the search by
    over EPS_GRID_EXCESS.
    Rank-deficient channels report the best beam of H itself, (1/2) log
    lambda_1 of the same pencil: an achievable rate, and the capacity when H
    is exactly rank one.  Both alternatives carry verdict Inapplicable and
    no upper bound since the tight construction does not apply.
    """
    cls = classify(ch)

    if cls.kind is ChannelKind.REDUCED_RANK:
        lam = ch._beam_eig[0][0]
        return _inapplicable(cls.kind, 0.5 * math.log(lam), lam, None, {"reduced_rank": True})

    if cls.kind is ChannelKind.DEGRADED:
        lam = ch._beam_eig[0][0]
        rate, _ = oracle._solved_rate(ch._gram, ch.g, ch.P)
        lattice = 0.5 * math.log(oracle._grid_max_ratio(ch._gram, ch.g, ch.P, *_DEGRADED_GRID))
        for name, witness in (("lattice", lattice), ("beam", 0.5 * math.log(lam))):
            if witness > rate + EPS_GRID_EXCESS:
                raise InvariantViolated(f"{name} rate {witness!r} beats the solved {rate!r}")
        flags = {"degraded_formula": "solved", "grid": list(_DEGRADED_GRID)}
        return _inapplicable(cls.kind, max(0.5 * math.log(lam), rate), lam, None, flags)

    beam = optimal_beam(ch)

    try:
        q_perp = mk.orth_perp(beam.q_a)
        tc = optimize_alpha(ch, q_perp)
        upper, eigs, eig_resid = _upper_bound_max_detail(ch, tc)

        exact_rate = 0.5 * math.log1p(oracle._beam_excess(ch, beam.q_a))
        _, three_path = _upper_value_detail(ch, beam.q_a, tc.a_star)

        # The regularized gain matrix A* is well conditioned even when
        # H^T H is nearly singular, so invert it directly for the coupling
        # identity rather than going through (H^T H)^{-1}.
        coupling = abs(mk.quad2(mk.inv2(tc.A_star), ch.g) - 1.0)

        a0, a0_orth = a_zero_witness(ch, beam.q_a)

        residuals = {
            "bound_gap_rel": abs(upper - beam.rate) / max(1.0, abs(beam.rate)),
            "a_star_norm": mk.norm2(tc.a_star),
            "unit_coupling": coupling,
            "eigen_one_abs": eig_resid["eigen_one_abs"],
            "eigen_lambda1_rel": eig_resid["eigen_lambda1_rel"],
            "sylvester_rel": abs(beam.rate - exact_rate) / max(1.0, abs(beam.rate)),
            "three_path_u_rel": three_path,
            "q_one_coupling": eig_resid["q_one_coupling"],
            "q_one_fixed_point": eig_resid["q_one_fixed_point"],
            "a_zero_norm": mk.norm2(a0),
            "a_zero_orth": a0_orth,
        }
        verdict = _certificate_verdict(residuals, eps_cert)
        return CapacityCertificate(
            kind=cls.kind,
            lower=beam.rate,
            upper=upper,
            lambda1=beam.lambda1,
            eigenvalues_of_bound=eigs,
            residuals=residuals,
            verdict=verdict,
            capacity_nats=beam.rate,
            capacity_bits=beam.rate / LOG2,
            beam=beam,
            correlation=tc,
            flags={"degenerate": beam.degenerate},
        )
    except (ConverseError, InvariantViolated, MatrixError, PreconditionFailed) as exc:
        # The tight construction failed (degenerate direction, ||a*|| off
        # the unit disk, a log argument cancelled at huge P, a numerically
        # singular H^T H or resolvent, or g^T (H^T H)^{-1} g lost to underflow
        # at squared gains near 1e-160).  The lower bound still stands; report
        # it without a certified converse rather than guessing.
        flags = {
            "tight_path_error": type(exc).__name__,
            "tight_path_message": str(exc),
            "degenerate": beam.degenerate,
        }
        return _inapplicable(cls.kind, beam.rate, beam.lambda1, beam, flags)
