"""Brute-force verification: covariance grid search, KKT checks, and
sampling of admissible noise correlations.

The grid search is a genuinely independent route to the rates: it
parameterizes transmit covariances by an eigenbasis angle and a pair of
nonnegative powers on the trace simplex, evaluates the exact rate expression
at every grid point, and only then takes the best.  Nothing here reuses the
closed-form eigen solution, so agreement between the two is evidence, not
circularity.

All randomness is seeded and every reduction is performed in a fixed order,
so identical seeds give bit-identical results regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit as mk
from .achievable import optimal_beam
from .channel import (
    ChannelKind,
    CovMat,
    WiretapChannel,
    classify,
    validate_covariance,
)
from .converse import TightCorrelation, coupling_gain_matrix
from .errors import (
    BoundaryAmbiguous,
    InvariantViolated,
    NoiseDegenerate,
    NotUnitRank,
    PreconditionFailed,
)
from .matkit import Mat2, Vec2
from .tolerances import EPS_KKT, EPS_NORM, EPS_RIM, EPS_SING


@dataclass(frozen=True)
class CovParam:
    """Covariance parameter: eigenbasis angle and the two eigen-powers.

    Maps to S = R(phi) diag(p1, p2) R(phi)^T, which is PSD by construction
    and respects the trace budget whenever p1 + p2 <= P.
    """

    phi: float
    p1: float
    p2: float


def covariance_from_param(param: CovParam) -> Mat2:
    c = math.cos(param.phi)
    s = math.sin(param.phi)
    q1 = (c, s)
    q2 = (-s, c)
    return mk.symmetrize2(
        mk.matadd2(
            mk.matscale2(param.p1, mk.outer2(q1, q1)),
            mk.matscale2(param.p2, mk.outer2(q2, q2)),
        )
    )


@dataclass(frozen=True)
class KKTReport:
    """First-order optimality report for a unit-rank covariance candidate."""

    multiplier: float
    residual_stationarity: float
    residual_complementarity: float
    psd_margin: float
    passes: bool


# --------------------------------------------------------------------------
# grid engine
# --------------------------------------------------------------------------

def _power_pairs(npower: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Triangular lattice on {p1, p2 >= 0, p1 + p2 <= P} with ~npower points.

    The lattice always contains the corners (P, 0), (0, P) and the origin,
    so the full-power unit-rank optima sit exactly on grid points.
    """
    m = 1
    while (m + 2) * (m + 3) // 2 <= npower:
        m += 1
    ii = np.repeat(np.arange(m + 1), np.arange(m + 1, 0, -1))
    jj = np.concatenate([np.arange(m + 1 - i) for i in range(m + 1)])
    return power * ii / m, power * jj / m


def _direction_profile(d: np.ndarray, g: np.ndarray, phis: np.ndarray):
    """Per-angle gains q_i^T D q_i and (g^T q_i)^2 for q1 = (c, s), q2 = (-s, c)."""
    c = np.cos(phis)
    s = np.sin(phis)
    d1 = d[0, 0] * c * c + 2.0 * d[0, 1] * c * s + d[1, 1] * s * s
    d2 = d[0, 0] * s * s - 2.0 * d[0, 1] * c * s + d[1, 1] * c * c
    e1 = (g[0] * c + g[1] * s) ** 2
    e2 = (g[1] * c - g[0] * s) ** 2
    return d1, d2, e1, e2


def _face_ratio(
    d: np.ndarray, g: np.ndarray, power: float, psis: np.ndarray
) -> np.ndarray:
    d1, _, e1, _ = _direction_profile(d, g, psis)
    return (1.0 + power * d1) / (1.0 + power * e1)


def _zoom_face(
    d: np.ndarray, g: np.ndarray, power: float, psi0: float, h0: float
) -> tuple[float, float]:
    """Deterministic bracket shrink around the best full-power beam angle."""
    best_psi = psi0
    best = float(_face_ratio(d, g, power, np.array([psi0]))[0])
    h = h0
    for _ in range(3):
        psis = best_psi + np.linspace(-0.5 * h, 0.5 * h, 33)
        r = _face_ratio(d, g, power, psis)
        j = int(np.argmax(r))
        if float(r[j]) > best:
            best = float(r[j])
            best_psi = float(psis[j])
        h /= 16.0
    return best_psi, best


def _grid_max_ratio(
    d_mat: Mat2, g: Vec2, power: float, nphi: int, npower: int, seed: int
) -> tuple[float, CovParam]:
    """Maximize (det(I + D S)) / (1 + g^T S g) over the covariance grid.

    Three deterministic stages: the exhaustive (angle x power-pair) grid with
    first-encountered row-major argmax, a bracket zoom along the full-power
    unit-rank face, and nphi seeded random simplex points.  Later stages
    replace the incumbent only on strict improvement.
    """
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])

    phis = np.arange(nphi) * (math.pi / nphi)
    d1, d2, e1, e2 = _direction_profile(d, gv, phis)
    p1, p2 = _power_pairs(npower, power)
    cross = det_d * (p1 * p2)
    num = 1.0 + np.outer(d1, p1) + np.outer(d2, p2) + cross[None, :]
    den = 1.0 + np.outer(e1, p1) + np.outer(e2, p2)
    ratio = num / den
    flat = int(np.argmax(ratio))
    i, k = divmod(flat, p1.shape[0])
    best = float(ratio[i, k])
    best_param = CovParam(float(phis[i]), float(p1[k]), float(p2[k]))

    face = (1.0 + power * d1) / (1.0 + power * e1)
    j = int(np.argmax(face))
    psi, face_best = _zoom_face(d, gv, power, float(phis[j]), math.pi / nphi)
    if face_best > best:
        best = face_best
        best_param = CovParam(psi, power, 0.0)

    rng = np.random.default_rng(seed)
    u = rng.random((nphi, 3))
    phir = u[:, 0] * math.pi
    fr1 = u[:, 1]
    fr2 = u[:, 2]
    swap = fr1 + fr2 > 1.0
    fr1 = np.where(swap, 1.0 - fr1, fr1)
    fr2 = np.where(swap, 1.0 - fr2, fr2)
    rp1 = power * fr1
    rp2 = power * fr2
    rd1, rd2, re1, re2 = _direction_profile(d, gv, phir)
    rnum = 1.0 + rd1 * rp1 + rd2 * rp2 + det_d * rp1 * rp2
    rden = 1.0 + re1 * rp1 + re2 * rp2
    rr = rnum / rden
    mbest = int(np.argmax(rr))
    if float(rr[mbest]) > best:
        best = float(rr[mbest])
        best_param = CovParam(float(phir[mbest]), float(rp1[mbest]), float(rp2[mbest]))

    return best, best_param


def _grid_optimum(
    ch: WiretapChannel, d_mat: Mat2, grid: tuple[int, int], seed: int
) -> tuple[CovMat, float]:
    """Grid-maximize (1/2) log [det(I + D S) / (1 + g^T S g)]: (S_best, nats)."""
    nphi, npower = grid
    if nphi < 2 or npower < 2:
        raise ValueError("grid sizes must be at least 2")
    best, param = _grid_max_ratio(d_mat, ch.g, ch.P, nphi, npower, seed)
    s_best = validate_covariance(covariance_from_param(param), ch.P)
    return s_best, 0.5 * math.log(best)


def brute_force_gaussian(
    ch: WiretapChannel, grid: tuple[int, int] = (512, 512), seed: int = 0
) -> tuple[CovMat, float]:
    """Maximize the Gaussian secrecy rate over the covariance grid.

    Parameters
    ----------
    ch : WiretapChannel
    grid : (nphi, npower)
        Angles in [0, pi) and the power-pair budget on the trace simplex.
        Resolutions of at least 64 per axis are recommended.
    seed : int
        Seed for the random refinement stage.

    Returns
    -------
    (S_best, rate)
        The best covariance found and its rate in nats.  The rate never
        exceeds the closed-form optimum and approaches it as the grid is
        refined.
    """
    return _grid_optimum(ch, ch._gram, grid, seed)


def brute_force_upper(
    ch: WiretapChannel, a: Vec2, grid: tuple[int, int] = (512, 512)
) -> tuple[CovMat, float]:
    """Grid-maximize the genie upper bound U(S, a) over covariances.

    Uses the collapsed 2x2 form of the bound (gain matrix A(a)), which the
    converse module has already cross-checked against the 3x3 and
    estimation-theoretic routes.  Returns (S_best, value) like
    ``brute_force_gaussian``; the random refinement stage uses seed 0.
    """
    if not mk.norm2(a) < 1.0 - EPS_NORM:
        raise NoiseDegenerate(f"||a|| = {mk.norm2(a)!r} is not < 1")
    return _grid_optimum(ch, coupling_gain_matrix(ch, a), grid, 0)


# --------------------------------------------------------------------------
# KKT verification
# --------------------------------------------------------------------------

def kkt_check(d_mat: Mat2, g: Vec2, power: float, s) -> KKTReport:
    """First-order optimality of a unit-rank candidate S = p q q^T.

    For the objective log det(I + D S) - log(1 + g^T S g) under tr(S) <= P,
    the gradient is G = (I + D S)^{-1} D - g g^T / (1 + g^T S g); the
    candidate passes when C = lambda I - G (with lambda = q^T G q) kills S,
    is PSD on the complement of the beam, the multiplier is nonnegative, and
    complementary slackness holds.
    """
    cov = validate_covariance(s, power)
    (ls1, ls2), (q, _) = mk.sym_eig2(cov.S)
    if abs(ls2) > EPS_KKT * max(1.0, abs(ls1)):
        raise NotUnitRank(f"covariance eigenvalues ({ls1!r}, {ls2!r}) are not unit-rank")

    d = mk.symmetrize2(d_mat)
    eye = mk.eye2()
    grad = mk.symmetrize2(
        mk.matadd2(
            mk.matmul2(mk.inv2(mk.matadd2(eye, mk.matmul2(d, cov.S))), d),
            mk.matscale2(-1.0 / (1.0 + mk.quad2(cov.S, g)), mk.outer2(g, g)),
        )
    )
    lam = mk.quad2(grad, q)
    c_mat = mk.matadd2(mk.matscale2(lam, eye), mk.matscale2(-1.0, grad))
    cs = mk.matmul2(c_mat, cov.S)
    stationarity = max(abs(x) for row in cs for x in row)
    complementarity = abs(lam * (mk.trace2(cov.S) - power))
    margin = mk.quad2(c_mat, mk.orth_perp(q))

    scale = max(1.0, power * mk.fro2(grad))
    passes = (
        stationarity <= EPS_KKT * scale
        and complementarity <= EPS_KKT * scale
        and lam >= -EPS_KKT
        and margin >= -EPS_KKT * max(1.0, mk.fro2(grad))
    )
    return KKTReport(
        multiplier=lam,
        residual_stationarity=stationarity,
        residual_complementarity=complementarity,
        psd_margin=margin,
        passes=passes,
    )


def no_nonneg_roots(d_mat: Mat2, g: Vec2, lam: float) -> bool:
    """Check that the full-rank stationarity quadratic has no root >= 0.

    The quadratic gamma^2 + (1 + c) gamma + c + (||g||^2 / lam)(c - 1) with
    c = g^T D^{-1} g >= 1 has positive linear and constant coefficients, so
    its roots (if real) are both negative; a nonnegative root would let a
    full-rank covariance satisfy stationarity, contradicting unit-rank
    optimality.  Verified both by the sign analysis and by evaluating the
    roots when they are real.
    """
    if not lam > 0.0:
        raise PreconditionFailed("multiplier must be positive")
    w = mk.inv2(mk.symmetrize2(d_mat))
    gdg = mk.quad2(w, g)
    if gdg < 1.0 - EPS_SING:
        raise PreconditionFailed(f"g^T D^{{-1}} g = {gdg!r} is below 1")
    lin = 1.0 + gdg
    const = gdg + (mk.dot2(g, g) / lam) * (gdg - 1.0)
    verdict = lin > 0.0 and const > 0.0
    disc = lin * lin - 4.0 * const
    if disc >= 0.0:
        root_hi = 0.5 * (-lin + math.sqrt(disc))
        if verdict and root_hi >= 0.0:
            raise InvariantViolated(
                f"sign analysis and explicit root {root_hi!r} disagree"
            )
    return verdict


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def min_over_a(
    ch: WiretapChannel,
    samples: int,
    seed: int,
    grid: tuple[int, int] = (256, 256),
) -> tuple[Vec2, float, TightCorrelation, float]:
    """Sample admissible correlations and minimize the grid upper bound.

    Every member of the family is a valid upper bound, so the sampled
    minimum should stay above the achievable rate (up to EPS_GRID), and the
    optimized correlation should do at least as well as every sample.  The
    values are returned, not judged: the oracle verb checks both relations.
    Channels that are not General fail in optimal_beam or optimize_alpha,
    before any grid.

    Returns (a_best, value, tc, star_value): the best sample and its grid
    value, and ``optimize_alpha``'s correlation with the grid value at a*.
    """
    from .converse import optimize_alpha

    if samples < 1:
        raise ValueError("need at least one sample")
    beam = optimal_beam(ch)
    tc = optimize_alpha(ch, mk.orth_perp(beam.q_a))

    rng = np.random.default_rng(seed)
    best_a: Vec2 | None = None
    best_value = math.inf
    for _ in range(samples):
        while True:
            u, v = rng.random(2)
            r = math.sqrt(u)
            if r < 1.0 - EPS_RIM:
                break
        ang = 2.0 * math.pi * v
        a = (r * math.cos(ang), r * math.sin(ang))
        _, value = brute_force_upper(ch, a, grid)
        if value < best_value:
            best_value = value
            best_a = a
    assert best_a is not None

    _, star_value = brute_force_upper(ch, tc.a_star, grid)
    return best_a, best_value, tc, star_value


def sample_general_channels(
    seed: int, count: int, power: float = 1.0
) -> tuple[list[WiretapChannel], int]:
    """Rejection-sample channels with i.i.d. standard normal gains until
    ``count`` of them classify as General.  Returns (channels, attempts)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    out: list[WiretapChannel] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        v = rng.standard_normal(6)
        ch = WiretapChannel(
            ((float(v[0]), float(v[1])), (float(v[2]), float(v[3]))),
            (float(v[4]), float(v[5])),
            power,
        )
        try:
            cls = classify(ch)
        except BoundaryAmbiguous:
            continue
        if cls.kind is ChannelKind.GENERAL:
            out.append(ch)
    return out, attempts
