"""Upper bound: the correlated-noise genie construction and the capacity certificate.

Handing the eavesdropper's observation to the receiver turns the channel
into a degraded one whose secrecy capacity upper-bounds the original.  The
bound depends on the (otherwise irrelevant) cross-correlation a between the
two noises, through

    U(S, a) = (1/2) log [ det(I_3 + N^{-1} Hbar S Hbar^T) / (1 + g^T S g) ],

where N is the joint noise covariance and Hbar stacks H on top of g^T.
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
from dataclasses import dataclass, field
from typing import Any

from . import matkit as mk
from .achievable import BeamSolution, optimal_beam
from .channel import (
    ChannelKind,
    CovMat,
    WiretapChannel,
    beam_covariance,
    classify,
    reduce_rank_deficient,
    _gaussian_rate_detail,
    _require_positive,
)
from .errors import (
    ConverseError,
    DegenerateDirection,
    InvariantViolated,
    MatrixError,
    NoiseDegenerate,
    PreconditionFailed,
    RankDeficient,
)
from .matkit import Mat2, Mat3, Vec2
from .tolerances import (
    EIGEN_ONE_TOL,
    EPS_CERT,
    EPS_EIG,
    EPS_ID,
    EPS_NORM,
    EPS_SING,
    UNIT_COUPLING_TOL,
)

LOG2 = math.log(2.0)

# Degraded channels are resolved by the oracle's covariance grid search.
_DEGRADED_GRID = (512, 512)


@dataclass(frozen=True)
class TightCorrelation:
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


@dataclass(frozen=True)
class CapacityCertificate:
    """Outcome of running both bounds on one channel.

    ``lower`` and ``upper`` are unclamped nats.  ``residuals`` maps identity
    names to their numerical residuals; the verdict is Tight only when the
    bound gap and every residual are within tolerance.  Degraded and
    rank-deficient channels get verdict Inapplicable together with the
    appropriate alternative computation (recorded in ``flags``).
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
    flags: dict[str, Any] = field(default_factory=dict)


# Residual names -> pass thresholds: the only gates on the identities the
# certificate records.  The bound gap takes the certificate tolerance.
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
    a_mat = mk.symmetrize2(
        mk.matadd2(ch._gram, mk.matscale2(theta, mk.outer2(q_perp, q_perp)))
    )
    return TightCorrelation(
        alpha_star=alpha_star,
        theta_star=theta,
        a_star=a_star,
        A_star=a_mat,
        q_perp=q_perp,
    )


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
    return mk.symmetrize2(mk.matadd2(ch._gram, mk.matscale2(1.0 / k, mk.outer2(v, v))))


def _upper_value_detail(
    ch: WiretapChannel, cov: CovMat, a: Vec2
) -> tuple[float, float]:
    """The genie bound value by three independent evaluation routes.

    Route 1 is the defining 3x3 determinant with N^{-1}; route 2 the 2x2
    determinant with A(a); route 3 the estimation-theoretic form: the log
    determinant of the error covariance of the best linear estimate of the
    receiver's signal from the eavesdropper's, normalized by det N.  Returns
    (route-1 value, worst pairwise relative disagreement).
    """
    s = cov.S
    gain = coupling_gain_matrix(ch, a)  # the unit-disk gate, ahead of inv_N
    ninv = mk.inv_N(a)
    den = 1.0 + mk.quad2(s, ch.g)
    _require_positive("genie bound", den=den)  # before route 3 divides by it

    # Route 1: 3x3 determinant.
    rows = (ch.H[0], ch.H[1], ch.g)
    srows = [mk.matvec2(s, r) for r in rows]
    hsh3: Mat3 = tuple(
        tuple(mk.dot2(rows[i], srows[j]) for j in range(3)) for i in range(3)
    )  # type: ignore[assignment]
    det_1 = mk.det3(mk.matadd3(mk.eye3(), mk.matmul3(ninv, hsh3)))

    # Route 2: 2x2 determinant with the collapsed gain matrix.
    det_2 = mk.det2(mk.matadd2(mk.eye2(), mk.matmul2(gain, s)))

    # Route 3: linear-estimation error covariance over det N.
    hsg = mk.add2(mk.matvec2(ch.H, mk.matvec2(s, ch.g)), a)
    hsh2 = mk.matmul2(mk.matmul2(ch.H, s), mk.transpose2(ch.H))
    err = mk.matadd2(
        mk.matadd2(mk.eye2(), hsh2),
        mk.matscale2(-1.0 / den, mk.outer2(hsg, hsg)),
    )
    det_3 = mk.det2(err)
    det_n = mk.det3(mk.noise_cov3(a))
    _require_positive("genie bound", route_1=det_1, route_2=det_2, route_3=det_3, det_N=det_n)
    u1 = 0.5 * (math.log(det_1) - math.log(den))
    u2 = 0.5 * (math.log(det_2) - math.log(den))
    u3 = 0.5 * (math.log(det_3) - math.log(det_n))

    worst = max(abs(u1 - u2), abs(u1 - u3), abs(u2 - u3)) / max(1.0, abs(u1))
    return u1, worst


def _upper_bound_max_detail(
    ch: WiretapChannel, tc: TightCorrelation
) -> tuple[float, tuple[float, float], dict[str, float]]:
    """The genie bound's maximum at the tight correlation: (1/2) log of the top
    eigenvalue of (I + P g g^T)^{-1}(I + P H^T H + P theta* q_perp q_perp^T),
    the spectrum, and the residuals the certificate gates."""
    a_rayleigh, b = ch._beam_pencil
    abar = mk.symmetrize2(
        mk.matadd2(
            a_rayleigh,
            mk.matscale2(ch.P * tc.theta_star, mk.outer2(tc.q_perp, tc.q_perp)),
        )
    )
    (lmax, lmin), _ = mk.gen_eig2_rank1(abar, ch.P, ch.g)
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
    gates = {**RESIDUAL_TOLERANCES, "bound_gap_rel": eps_cert}
    return "Tight" if all(residuals[n] <= tol for n, tol in gates.items()) else "NotTight"


def _inapplicable(
    kind: ChannelKind,
    value: float,
    upper: float | None,
    lambda1: float,
    beam: BeamSolution | None,
    flags: dict[str, Any],
) -> CapacityCertificate:
    """Certificate of a channel the tight construction does not cover."""
    return CapacityCertificate(
        kind=kind,
        lower=value,
        upper=upper,
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
    eps_cert (relative) and every residual passes.  Degraded channels report
    the best Gaussian rate found by the brute-force covariance search
    (flagged ``degraded_formula: numerical``); rank-deficient channels
    report the known capacity of the equivalent 2-1-1 channel.  Both
    alternatives carry verdict Inapplicable since the tight construction
    does not apply.
    """
    cls = classify(ch)

    if cls.kind is ChannelKind.REDUCED_RANK:
        h = reduce_rank_deficient(ch)
        a_m = mk.matadd2(mk.eye2(), mk.matscale2(ch.P, mk.outer2(h, h)))
        (lam, _), _ = mk.gen_eig2_rank1(a_m, ch.P, ch.g)
        value = 0.5 * math.log(lam)
        flags = {"reduced_rank": True, "miso_capacity": True}
        return _inapplicable(cls.kind, value, value, lam, None, flags)

    beam = optimal_beam(ch)

    if cls.kind is ChannelKind.DEGRADED:
        from .oracle import brute_force_gaussian

        _, grid_rate = brute_force_gaussian(ch, _DEGRADED_GRID)
        flags = {
            "degraded_formula": "numerical",
            "grid": list(_DEGRADED_GRID),
            "no_eavesdropper": beam.no_eavesdropper,
        }
        value = max(beam.rate, grid_rate)
        return _inapplicable(cls.kind, value, None, beam.lambda1, beam, flags)

    try:
        q_perp = mk.orth_perp(beam.q_a)
        tc = optimize_alpha(ch, q_perp)
        upper, eigs, eig_resid = _upper_bound_max_detail(ch, tc)

        s_beam = beam_covariance(beam.q_a, ch.P)
        _, sylvester = _gaussian_rate_detail(ch, s_beam)
        _, three_path = _upper_value_detail(ch, s_beam, tc.a_star)

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
            "sylvester_rel": sylvester,
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
            flags={"degenerate": beam.degenerate, "no_eavesdropper": beam.no_eavesdropper},
        )
    except (ConverseError, InvariantViolated, MatrixError) as exc:
        # The tight construction failed (degenerate direction, ||a*|| off
        # the unit disk, a log argument cancelled at huge P, or a numerically
        # singular H^T H or resolvent).  The lower bound still stands; report
        # it without a certified converse rather than guessing.
        flags = {
            "tight_path_error": type(exc).__name__,
            "tight_path_message": str(exc),
            "degenerate": beam.degenerate,
        }
        return _inapplicable(cls.kind, beam.rate, None, beam.lambda1, beam, flags)
