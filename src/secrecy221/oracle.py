"""Brute-force verification: covariance grid search, KKT checks, and
sampling of admissible noise correlations.

The grid search is a genuinely independent route to the rates: it
parameterizes transmit covariances by an eigenbasis angle and a pair of
nonnegative powers on the trace simplex and finds the grid point where the
exact rate expression is largest.  Nothing here reuses the closed-form eigen
solution, so agreement between the two is evidence, not circularity.

The best grid point is found without evaluating every point.  For a fixed
angle the ratio det(I + D S) / (1 + g^T S g) is linear-fractional, so
monotone, in p2 at fixed p1 and in p1 along p2 = 0; each angle's row of the
power lattice therefore peaks at the origin or on the full-power edge
p1 + p2 = P.  Only those candidates are evaluated, the origin and the m + 1
full-power points of the side-m lattice at every angle, each rounded as the
whole-grid expression rounds it, so the result is the lattice maximum up to
rounding.

Only the numerator det(I + D S) of the grid's ratio depends on the gain
matrix D; the angles, the candidates' powers and denominators and the
random stage form a frame that every grid over one channel, budget and grid
size shares.  ``min_over_a`` builds one frame per report for its sampled
correlations and a*; a standalone grid call builds its own.

All randomness is seeded, the grid's random stage always with 0, and every
reduction is performed in a fixed order, so identical seeds give
bit-identical results regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import matkit as mk
from .achievable import BeamSolution
from .channel import (
    ChannelKind,
    CovMat,
    WiretapChannel,
    classify,
    validate_covariance,
)
from .converse import TightCorrelation, coupling_gain_matrix
from .errors import BoundaryAmbiguous, NotUnitRank
from .matkit import Mat2, Vec2
from .tolerances import EPS_KKT, EPS_RIM


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

def _beam_gain(d: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-angle gain q1^T D q1 for q1 = (c, s)."""
    return d[0, 0] * c * c + 2.0 * d[0, 1] * c * s + d[1, 1] * s * s


def _beam_gains(d: np.ndarray, c: np.ndarray, s: np.ndarray):
    """Per-angle gains q_i^T D q_i for q1 = (c, s), q2 = (-s, c)."""
    d2 = d[0, 0] * s * s - 2.0 * d[0, 1] * c * s + d[1, 1] * c * c
    return _beam_gain(d, c, s), d2


def _eve_gain(g: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-angle eavesdropper gain (g^T q1)^2 for q1 = (c, s)."""
    return (g[0] * c + g[1] * s) ** 2


def _eve_gains(g: np.ndarray, c: np.ndarray, s: np.ndarray):
    """Per-angle eavesdropper gains (g^T q_i)^2 for q1 = (c, s), q2 = (-s, c)."""
    return _eve_gain(g, c, s), (g[1] * c - g[0] * s) ** 2


def _face_ratio(
    d: np.ndarray, g: np.ndarray, power: float, psis: np.ndarray
) -> np.ndarray:
    c = np.cos(psis)
    s = np.sin(psis)
    return (1.0 + power * _beam_gain(d, c, s)) / (1.0 + power * _eve_gain(g, c, s))


def _zoom_face(
    d: np.ndarray, g: np.ndarray, power: float, psi0: float, best: float, h0: float
) -> tuple[float, float]:
    """Deterministic bracket shrink around the best full-power beam angle
    ``psi0``, whose ratio ``best`` the caller has already evaluated."""
    best_psi = psi0
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


def _grid_frame(g: Vec2, power: float, nphi: int, npower: int) -> SimpleNamespace:
    """The part of the (nphi x npower) grid search that does not depend on D.

    Every grid over one channel, budget and grid size shares it: the angles
    ``phis`` with cosines ``c`` and sines ``s``; the candidates of every
    angle, the origin and the m + 1 full-power points (i, m - i) of the
    side-m power lattice, the largest with at most npower points, with their
    powers ``cp1``, ``cp2``, ``cp12`` and denominators 1 + g^T S g
    (``cden``, nphi x (m + 2)); the denominator on the full-power face
    (``face_den``); and the random stage's angles ``rphi`` (cosines ``rc``,
    sines ``rs``), powers ``rp1``, ``rp2`` and denominators ``rden``.  It
    lives as long as the report that uses it.
    """
    if nphi < 2 or npower < 2:
        raise ValueError("grid sizes must be at least 2")
    gv = np.asarray(g, dtype=float)

    phis = np.arange(nphi) * (math.pi / nphi)
    c = np.cos(phis)
    s = np.sin(phis)
    e1, e2 = _eve_gains(gv, c, s)
    # The side-m lattice {(i, j) P / m : i + j <= m} has (m + 1)(m + 2) / 2
    # points; its row i peaks at the origin or at (i, m - i).
    m = max(1, (math.isqrt(8 * npower + 1) - 3) // 2)
    i = np.arange(m + 1)
    cp1 = np.concatenate(([0.0], power * i / m))
    cp2 = np.concatenate(([0.0], power * (m - i) / m))
    cden = 1.0 + np.outer(e1, cp1) + np.outer(e2, cp2)

    rng = np.random.default_rng(0)
    u = rng.random((nphi, 3))
    rphi = u[:, 0] * math.pi
    fr1 = u[:, 1]
    fr2 = u[:, 2]
    swap = fr1 + fr2 > 1.0
    fr1 = np.where(swap, 1.0 - fr1, fr1)
    fr2 = np.where(swap, 1.0 - fr2, fr2)
    rp1 = power * fr1
    rp2 = power * fr2
    rc = np.cos(rphi)
    rs = np.sin(rphi)
    re1, re2 = _eve_gains(gv, rc, rs)

    return SimpleNamespace(
        phis=phis,
        c=c,
        s=s,
        cp1=cp1,
        cp2=cp2,
        cp12=cp1 * cp2,
        cden=cden,
        face_den=1.0 + power * e1,
        rphi=rphi,
        rc=rc,
        rs=rs,
        rp1=rp1,
        rp2=rp2,
        rden=1.0 + re1 * rp1 + re2 * rp2,
    )


def _grid_max_ratio(
    d_mat: Mat2,
    g: Vec2,
    power: float,
    nphi: int,
    npower: int,
    frame: SimpleNamespace | None = None,
) -> tuple[float, CovParam]:
    """Maximize (det(I + D S)) / (1 + g^T S g) over the covariance grid.

    Three deterministic stages: the exhaustive (angle x power-pair) grid, a
    bracket zoom along the full-power unit-rank face, and nphi random
    simplex points.  Later stages replace the incumbent only on strict
    improvement.

    ``frame`` is ``_grid_frame(g, power, nphi, npower)``, built here when not
    given; only the numerator depends on D.  The exhaustive stage is the
    first-occurrence argmax, in angle-major order, over every angle's
    candidates from the module docstring, each rounded as the whole-grid
    expression ((1 + d1 (x) p1) + d2 (x) p2 + det D p1 p2) / den rounds it.
    By the lemma there, the value is the lattice maximum up to that
    rounding.  No ratio is NaN: every numerator term is finite, since
    MAX_SNR bounds P times the channel's gains and the unit-disk gate keeps
    1 - ||a||^2 in A(a) away from 0.  So the result does not depend on the
    thread count.
    """
    if frame is None:
        frame = _grid_frame(g, power, nphi, npower)
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])

    d1, d2 = _beam_gains(d, frame.c, frame.s)
    cand = 1.0 + np.outer(d1, frame.cp1) + np.outer(d2, frame.cp2) + det_d * frame.cp12
    cand /= frame.cden
    i, k = divmod(int(np.argmax(cand)), cand.shape[1])
    best = float(cand[i, k])
    best_param = CovParam(float(frame.phis[i]), float(frame.cp1[k]), float(frame.cp2[k]))

    face = (1.0 + power * d1) / frame.face_den
    j = int(np.argmax(face))
    psi, face_best = _zoom_face(
        d, gv, power, float(frame.phis[j]), float(face[j]), math.pi / nphi
    )
    if face_best > best:
        best = face_best
        best_param = CovParam(psi, power, 0.0)

    rp1, rp2 = frame.rp1, frame.rp2
    rd1, rd2 = _beam_gains(d, frame.rc, frame.rs)
    rnum = 1.0 + rd1 * rp1 + rd2 * rp2 + det_d * rp1 * rp2
    rr = rnum / frame.rden
    mbest = int(np.argmax(rr))
    if float(rr[mbest]) > best:
        best = float(rr[mbest])
        best_param = CovParam(
            float(frame.rphi[mbest]), float(rp1[mbest]), float(rp2[mbest])
        )

    return best, best_param


def _grid_optimum(
    ch: WiretapChannel,
    d_mat: Mat2,
    grid: tuple[int, int],
    frame: SimpleNamespace | None = None,
) -> tuple[CovMat, float]:
    """Grid-maximize (1/2) log [det(I + D S) / (1 + g^T S g)]: (S_best, nats)."""
    nphi, npower = grid
    best, param = _grid_max_ratio(d_mat, ch.g, ch.P, nphi, npower, frame)
    s_best = validate_covariance(covariance_from_param(param), ch.P)
    return s_best, 0.5 * math.log(best)


def brute_force_gaussian(
    ch: WiretapChannel, grid: tuple[int, int] = (512, 512)
) -> tuple[CovMat, float]:
    """Maximize the Gaussian secrecy rate over the covariance grid.

    Parameters
    ----------
    ch : WiretapChannel
    grid : (nphi, npower)
        Angles in [0, pi) and the power-pair budget on the trace simplex.
        Resolutions of at least 64 per axis are recommended.

    Returns
    -------
    (S_best, rate)
        The best covariance found and its rate in nats.  The rate never
        exceeds the closed-form optimum and approaches it as the grid is
        refined.  The random refinement stage is seeded with 0.
    """
    return _grid_optimum(ch, ch._gram, grid)


def brute_force_upper(
    ch: WiretapChannel,
    a: Vec2,
    grid: tuple[int, int] = (512, 512),
    frame: SimpleNamespace | None = None,
) -> tuple[CovMat, float]:
    """Grid-maximize the genie upper bound U(S, a) over covariances.

    Uses the collapsed 2x2 form of the bound (gain matrix A(a)), which the
    converse module has already cross-checked against the 3x3 and
    estimation-theoretic routes.  Returns (S_best, value) like
    ``brute_force_gaussian``.  An a not strictly inside the unit disk raises
    NoiseDegenerate.  ``frame``, when given, is ``_grid_frame(ch.g, ch.P,
    *grid)``, shared by every correlation searched over the same grid; the
    value is the same with or without it.
    """
    return _grid_optimum(ch, coupling_gain_matrix(ch, a), grid, frame)


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


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def min_over_a(
    ch: WiretapChannel,
    beam: BeamSolution,
    samples: int,
    seed: int,
    grid: tuple[int, int] = (256, 256),
) -> tuple[Vec2, float, TightCorrelation, float]:
    """Sample admissible correlations and minimize the grid upper bound.

    Every member of the family is a valid upper bound, so the sampled
    minimum should stay above the achievable rate (up to EPS_GRID), and the
    optimized correlation should do at least as well as every sample.  The
    values are returned, not judged: the oracle verb checks both relations.
    ``beam`` is the channel's ``optimal_beam``; channels that are not
    General fail in optimal_beam or optimize_alpha, before any grid.

    Returns (a_best, value, tc, star_value): the best sample and its grid
    value, and ``optimize_alpha``'s correlation with the grid value at a*.
    """
    from .converse import optimize_alpha

    if samples < 1:
        raise ValueError("need at least one sample")
    tc = optimize_alpha(ch, mk.orth_perp(beam.q_a))

    frame = _grid_frame(ch.g, ch.P, *grid)
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
        _, value = brute_force_upper(ch, a, grid, frame)
        if value < best_value:
            best_value = value
            best_a = a
    assert best_a is not None

    _, star_value = brute_force_upper(ch, tc.a_star, grid, frame)
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
