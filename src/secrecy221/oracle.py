"""Brute-force verification: the solved covariance search, the exact bracket
on the closed-form beam, and sampling of random General channels.

The covariance search is a genuinely independent route to the rates.  The
covariances of trace P form the disk S(z) = (P/2) [[1 + x, y], [y, 1 - x]],
|z| <= 1, with eigenvalues (P/2)(1 +- |z|), so the rim |z| = 1 holds the
unit-rank beams.  On it det(I + D S) is a quadratic in z with isotropic
curvature -(P/2)^2 det D and 1 + g^T S g is affine, so Dinkelbach's
iteration, each step in closed form (``_disk_max``), maximizes their ratio
exactly, full-rank optima included, without the closed form's eigenpair.

Covariances with trace below P need no search.  In a fixed eigenbasis the
ratio det(I + D S) / (1 + g^T S g) is linear-fractional, so monotone, in p2
at fixed p1 and in p1 along p2 = 0; its maximum over tr S <= P lies at the
origin or at full power.  So the side-m power lattice peaks, at each angle,
at the origin or at one of its m + 1 full-power points, which is all that
the lattice witness ``_grid_max_ratio`` evaluates.

The bracket judges a beam exactly, from the float inputs as integers over
powers of two.  The channel's part, H, g and H^T H - g g^T over one
denominator, is its cached image (``WiretapChannel._image``), made once per
(H, g) and carried along a power sweep, so each kernel converts only its own
floats: ``_beam_excess`` converts q and P and rounds the beam's excess ratio
once, and ``_bound_at_most`` converts a, P and rho and compares the genie
bound at a with 1 + rho on the same disk.  The genie-aided channel is
degraded, so its Gaussian maximum is its secrecy capacity, which bounds the
channel's at any a inside the unit disk.

Only ``sample_general_channels`` draws random numbers, from the caller's
seed, and the witness reduces in a fixed order, so identical seeds give
bit-identical results regardless of thread count.
numpy is imported by the functions that use it, not by the package.
"""

from __future__ import annotations

import math

from . import matkit as mk
from .channel import (
    ChannelKind,
    CovMat,
    WiretapChannel,
    classify,
    validate_covariance,
)
from .matkit import Mat2, Vec2


def covariance_from_param(phi: float, p1: float, p2: float) -> Mat2:
    """S = R(phi) diag(p1, p2) R(phi)^T: PSD for p1, p2 >= 0, trace p1 + p2."""
    c = math.cos(phi)
    s = math.sin(phi)
    q1 = (c, s)
    q2 = (-s, c)
    return mk.matadd2(mk.matscale2(p1, mk.outer2(q1, q1)), mk.matscale2(p2, mk.outer2(q2, q2)))


# --------------------------------------------------------------------------
# covariance search
# --------------------------------------------------------------------------

def _sym_det(d_mat: Mat2) -> float:
    """d11 d22 - d12^2 from exact integer products, rounded once: the float
    formula cancels, and its cond(D) roundings would reach the ratio."""
    (d11, d12), (_, d22) = d_mat
    (a, b, c), d = mk._dyadic(d11, d12, d22)
    return (a * c - b * b) / (d * d)


def _disk_max(d_mat: Mat2, g: Vec2, power: float) -> tuple[float, tuple[float, float, float]]:
    """Maximize det(I + D S) / (1 + g^T S g) over PSD S with tr S <= P.

    Dinkelbach's iteration on the disk of the module docstring: at the ratio
    r, N - r Den = const + v.z - gamma |z|^2 with v = (P/2)(delta - r eps),
    gamma = (P/2)^2 det D, delta = (d11 - d22, 2 d12), eps = (g1^2 - g2^2,
    2 g1 g2).  Its maximum over the disk is at z = v / 2 gamma when that
    lies inside the disk and at v / |v| on the rim otherwise, and its ratio
    exceeds r unless r is the maximum.  Each iterate is evaluated in its
    eigenbasis (phi, (P/2)(1 +- |z|)), as a lattice point is: S's entries
    would cancel digits of 1 + g^T S g at large P.  The iteration starts at
    the centre, stops when r no longer strictly rises, and then compares
    with the origin, whose ratio is 1.  Returns (ratio, (phi, p1, p2)), the
    maximizer in the parameters of ``covariance_from_param``.
    """
    (d11, d12), (_, d22) = d_mat
    g1, g2 = g
    h = 0.5 * power
    det_d = _sym_det(d_mat)
    two_gamma = 2.0 * h * h * det_d
    dx, dy, ex, ey = d11 - d22, 2.0 * d12, g1 * g1 - g2 * g2, 2.0 * g1 * g2

    def ratio(phi: float, p1: float, p2: float) -> float:
        c = math.cos(phi)
        s = math.sin(phi)
        d1 = d11 * c * c + 2.0 * d12 * c * s + d22 * s * s
        d2 = d11 * s * s - 2.0 * d12 * c * s + d22 * c * c
        e1 = (g1 * c + g2 * s) ** 2
        e2 = (g2 * c - g1 * s) ** 2
        return ((1.0 + d1 * p1) + d2 * p2 + det_d * (p1 * p2)) / (
            (1.0 + e1 * p1) + e2 * p2
        )

    best_s = (0.0, h, h)
    best = ratio(*best_s)
    while True:
        vx = h * (dx - best * ex)
        vy = h * (dy - best * ey)
        v = math.hypot(vx, vy)
        m = v / two_gamma if 0.0 < two_gamma and v <= two_gamma else 1.0
        s = (0.5 * math.atan2(vy, vx), h * (1.0 + m), h * (1.0 - m))
        r = ratio(*s)
        if r <= best:
            break
        best, best_s = r, s
    if best <= 1.0:
        return 1.0, (0.0, 0.0, 0.0)
    return best, best_s


def _candidate_powers(npower: int, power: float):
    """Powers (p1, p2) of each angle's candidates: the origin and the m + 1
    full-power points (i, m - i) P / m of the side-m power lattice
    {(i, j) P / m : i + j <= m}, the largest with at most npower points."""
    import numpy as np

    # The lattice has (m + 1)(m + 2) / 2 points; its row i peaks at the
    # origin or at (i, m - i).
    m = max(1, (math.isqrt(8 * npower + 1) - 3) // 2)
    i = np.arange(m + 1)
    return (
        np.concatenate(([0.0], power * i / m)),
        np.concatenate(([0.0], power * (m - i) / m)),
    )


def _grid_max_ratio(d_mat: Mat2, g: Vec2, power: float, nphi: int, npower: int) -> float:
    """The maximum of det(I + D S) / (1 + g^T S g) over the covariance lattice.

    The witness of the solved search on Degraded certificates: the
    (angle x power-pair) lattice, nphi angles in [0, pi) times the side-m
    power lattice, searched without ``_disk_max``.  By the lemma of the
    module docstring only each angle's origin and full-power candidates are
    evaluated, each rounded as the whole-grid expression ((1 + d1 (x) p1) +
    d2 (x) p2 + det D p1 p2) / den rounds it, so the value is the lattice
    maximum up to that rounding.  No ratio is NaN: every numerator term is
    finite, since MAX_SNR bounds P times the channel's gains.  The value
    does not depend on the thread count.
    """
    import numpy as np

    if nphi < 2 or npower < 2:
        raise ValueError("grid sizes must be at least 2")
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = _sym_det(d_mat)

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
    return float(cand.max())


def _solved_rate(
    d_mat: Mat2, g: Vec2, power: float
) -> tuple[float, tuple[float, float, float]]:
    """Maximize (1/2) log [det(I + D S) / (1 + g^T S g)]: (nats, (phi, p1, p2))."""
    best, param = _disk_max(d_mat, g, power)
    return 0.5 * math.log(best), param


def brute_force_gaussian(ch: WiretapChannel) -> tuple[CovMat, float]:
    """Maximize the Gaussian secrecy rate over every covariance of trace <= P.

    Returns
    -------
    (S_best, rate)
        The maximizing covariance and its rate in nats, solved by
        ``_disk_max`` without the closed form: a full-power beam where the
        paper puts the optimum, and a full-rank covariance where a Degraded
        channel's optimum lies inside the disk.  The rate equals the
        closed-form optimum of a General channel up to rounding.
    """
    rate, param = _solved_rate(ch._gram, ch.g, ch.P)
    return validate_covariance(covariance_from_param(*param), ch.P), rate


# --------------------------------------------------------------------------
# exact bracket
# --------------------------------------------------------------------------

def _beam_excess(ch: WiretapChannel, q: Vec2) -> float:
    """(q^T q + P ||Hq||^2) / (q^T q + P (g^T q)^2) - 1 for a nonzero q, exact
    for the float inputs and rounded once.  S = P q q^T / q^T q is feasible,
    so (1/2) log1p of the exact value is an achievable secrecy rate.  The
    numerator is P q^T (H^T H - g g^T) q, with the matrix from the image."""
    _, _, _, _, g1, g2, m11, m12, m22, d = ch._image
    (q1, q2, p), e = mk._dyadic(*q, ch.P)
    gq = g1 * q1 + g2 * q2
    num = p * (m11 * q1 * q1 + 2 * m12 * q1 * q2 + m22 * q2 * q2)  # both terms scaled by e^3 d^2
    return num / (e * d * d * (q1 * q1 + q2 * q2) + p * gq * gq)


def _bound_at_most(ch: WiretapChannel, a: Vec2, rho: float) -> bool:
    """Whether det(I + A(a) S) <= (1 + rho)(1 + g^T S g) for every PSD S with
    tr S <= P, decided exactly for the float inputs; False for ||a|| >= 1.

    The full-power beam orthogonal to g has ratio >= 1, so the disk decides
    alone, rho < 0 included.  There N - (1 + rho) Den = c0 + w.z - gamma |z|^2
    peaks, as in ``_disk_max``, at c0 + |w|^2 / 4 gamma when |w| <= 2 gamma
    and at c0 - gamma + |w| on the rim otherwise.  kA = k H^T H + v v^T, with
    k = 1 - ||a||^2 and v = H^T a - g, is a polynomial, so both comparisons
    are squared and made in integers scaled by 4 k^2, with the image and the
    converted a, P and rho rescaled to the larger of their denominators.
    """
    image, (xs, e) = ch._image, mk._dyadic(*a, ch.P, rho)
    d = max(image[-1], e)
    h11, h12, h21, h22, g1, g2 = [x * (d // image[-1]) for x in image[:6]]
    a1, a2, p, rh = [x * (d // e) for x in xs]
    k = d * d - a1 * a1 - a2 * a2  # k d^2
    if k <= 0:
        return False
    v1, v2 = h11 * a1 + h21 * a2 - d * g1, h12 * a1 + h22 * a2 - d * g2  # v d^2
    b11 = k * (h11 * h11 + h21 * h21) + v1 * v1  # kA d^4
    b12 = k * (h11 * h12 + h21 * h22) + v1 * v2
    b22 = k * (h12 * h12 + h22 * h22) + v2 * v2
    r = d + rh  # (1 + rho) d
    # gamma, c0 and w, each scaled by 4 k^2 d^10.
    gam = p * p * (b11 * b22 - b12 * b12)
    c0 = gam + 2 * d * d * k * (
        d * p * (b11 + b22) - 2 * d**3 * k * rh - k * p * r * (g1 * g1 + g2 * g2)
    )
    s = 2 * d * d * k * p
    w1 = s * (d * (b11 - b22) - r * k * (g1 * g1 - g2 * g2))
    w2 = 2 * s * (d * b12 - r * k * g1 * g2)
    ww = w1 * w1 + w2 * w2
    if 0 < gam and ww <= 4 * gam * gam:
        return 4 * gam * c0 + ww <= 0
    return c0 <= gam and ww <= (gam - c0) ** 2


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_general_channels(
    seed: int, count: int, power: float = 1.0
) -> tuple[list[WiretapChannel], int]:
    """Rejection-sample channels with i.i.d. standard normal gains until
    ``count`` of them classify as General (full rank and ||H^{-T} g|| > 1).
    Returns (channels, attempts)."""
    import numpy as np

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
        if classify(ch).kind is ChannelKind.GENERAL:
            out.append(ch)
    return out, attempts
