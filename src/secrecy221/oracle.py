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

The full-power unit-rank face, where the paper puts the optimum of a
non-degraded channel, is then solved rather than searched: its best beam is
found by Dinkelbach's iteration on a linear-fractional function of the
doubled angle, without the generalized eigenpair of the closed form.

The grid draws no random numbers.  Only ``min_over_a`` and
``sample_general_channels`` do, from the caller's seed, and every reduction
is performed in a fixed order, so identical seeds give bit-identical results
regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

def _candidate_powers(npower: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Powers (p1, p2) of each angle's candidates: the origin and the m + 1
    full-power points (i, m - i) P / m of the side-m power lattice
    {(i, j) P / m : i + j <= m}, the largest with at most npower points."""
    # The lattice has (m + 1)(m + 2) / 2 points; its row i peaks at the
    # origin or at (i, m - i).
    m = max(1, (math.isqrt(8 * npower + 1) - 3) // 2)
    i = np.arange(m + 1)
    return (
        np.concatenate(([0.0], power * i / m)),
        np.concatenate(([0.0], power * (m - i) / m)),
    )


def _face_max(d_mat: Mat2, g: Vec2, power: float) -> tuple[float, float]:
    """Maximize (1 + P q^T D q) / (1 + P (g^T q)^2) over q = (cos psi, sin psi).

    With w = (cos 2 psi, sin 2 psi) the ratio is (a0 + a.w) / (b0 + b.w),
    and b0 > |b|.  Dinkelbach's iteration: at the ratio r, the maximum of
    (a0 + a.w) - r (b0 + b.w) over the unit circle is at w along a - r b,
    whose ratio exceeds r unless r is the maximum.  It starts from
    r = a0 / b0, the ratio of the two means over the circle, which cannot
    exceed the maximum; each step re-evaluates the ratio directly at its
    angle, and the iteration stops when that no longer strictly rises.
    Returns (psi, ratio).
    """
    (d11, d12), (_, d22) = d_mat
    g1, g2 = g
    h = 0.5 * power
    a0, a1, a2 = 1.0 + h * (d11 + d22), h * (d11 - d22), power * d12
    b0, b1, b2 = 1.0 + h * (g1 * g1 + g2 * g2), h * (g1 * g1 - g2 * g2), power * g1 * g2
    r = a0 / b0
    best_psi, best = 0.0, -math.inf
    while True:
        psi = 0.5 * math.atan2(a2 - r * b2, a1 - r * b1)
        c = math.cos(psi)
        s = math.sin(psi)
        r = (1.0 + (d11 * c * c + 2.0 * d12 * c * s + d22 * s * s) * power) / (
            1.0 + (g1 * c + g2 * s) ** 2 * power
        )
        if r <= best:
            return best_psi, best
        best_psi, best = psi, r


def _grid_max_ratio(
    d_mat: Mat2, g: Vec2, power: float, nphi: int, npower: int
) -> tuple[float, CovParam]:
    """Maximize (det(I + D S)) / (1 + g^T S g) over the covariance grid.

    Two deterministic stages: the exhaustive (angle x power-pair) grid and
    the solved full-power unit-rank face (``_face_max``), which replaces the
    lattice's incumbent only on strict improvement.

    The exhaustive stage is the first-occurrence argmax, in angle-major
    order, over every angle's candidates from the module docstring, each
    rounded as the whole-grid expression ((1 + d1 (x) p1) + d2 (x) p2 +
    det D p1 p2) / den rounds it.  By the lemma there, the value is the
    lattice maximum up to that rounding.  No ratio is NaN: every numerator
    term is finite, since MAX_SNR bounds P times the channel's gains and the
    unit-disk gate keeps 1 - ||a||^2 in A(a) away from 0.  So the result
    does not depend on the thread count.
    """
    if nphi < 2 or npower < 2:
        raise ValueError("grid sizes must be at least 2")
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])

    phis = np.arange(nphi) * (math.pi / nphi)
    c = np.cos(phis)
    s = np.sin(phis)
    # Per-angle gains q_i^T D q_i and (g^T q_i)^2 for q1 = (c, s), q2 = (-s, c).
    d1 = d[0, 0] * c * c + 2.0 * d[0, 1] * c * s + d[1, 1] * s * s
    d2 = d[0, 0] * s * s - 2.0 * d[0, 1] * c * s + d[1, 1] * c * c
    e1 = (gv[0] * c + gv[1] * s) ** 2
    e2 = (gv[1] * c - gv[0] * s) ** 2
    cp1, cp2 = _candidate_powers(npower, power)
    cand = 1.0 + np.outer(d1, cp1) + np.outer(d2, cp2) + det_d * (cp1 * cp2)
    cand /= 1.0 + np.outer(e1, cp1) + np.outer(e2, cp2)
    i, k = divmod(int(np.argmax(cand)), cand.shape[1])
    best = float(cand[i, k])
    best_param = CovParam(float(phis[i]), float(cp1[k]), float(cp2[k]))

    psi, face_best = _face_max(d.tolist(), gv.tolist(), power)
    if face_best > best:
        best = face_best
        best_param = CovParam(psi, power, 0.0)
    return best, best_param


def _grid_optimum(
    ch: WiretapChannel, d_mat: Mat2, grid: tuple[int, int]
) -> tuple[CovMat, float]:
    """Grid-maximize (1/2) log [det(I + D S) / (1 + g^T S g)]: (S_best, nats)."""
    nphi, npower = grid
    best, param = _grid_max_ratio(d_mat, ch.g, ch.P, nphi, npower)
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
        exceeds the closed-form optimum, up to rounding; when that optimum
        is a full-power beam, the solved face reaches it at any grid size,
        and otherwise the rate approaches it as the grid is refined.
    """
    return _grid_optimum(ch, ch._gram, grid)


def brute_force_upper(
    ch: WiretapChannel, a: Vec2, grid: tuple[int, int] = (512, 512)
) -> tuple[CovMat, float]:
    """Grid-maximize the genie upper bound U(S, a) over covariances.

    Uses the collapsed 2x2 form of the bound (gain matrix A(a)), which the
    converse module has already cross-checked against the 3x3 and
    estimation-theoretic routes.  Returns (S_best, value) like
    ``brute_force_gaussian``.  An a not strictly inside the unit disk raises
    NoiseDegenerate.
    """
    return _grid_optimum(ch, coupling_gain_matrix(ch, a), grid)


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
