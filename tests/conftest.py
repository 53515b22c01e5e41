"""Fixtures shared by the test modules, and the reference code of the facts
that more than one module checks but the library does not compute: the
null-beam rate, the root-sign lemma of the full-rank stationarity
quadratic, the 50-digit maximum of the Gaussian rate ratio over the
covariances, the genie bound maximized over the covariances, the genie
bound at a beam from its 3x3 definition in 50 digits, and the rotations of
the invariance tests.  Import the helpers with ``from conftest import ...``."""

import math

import mpmath
import pytest

from secrecy221 import WiretapChannel, coupling_gain_matrix, sample_general_channels
from secrecy221 import matkit as mk
from secrecy221.oracle import _solved_rate

SUITE_SEED = 20260808


def null_beam_rate(ch: WiretapChannel) -> float:
    """(1/2) log(1 + P ||H g_perp||^2): the rate of beaming orthogonally to g.

    On a full-rank H it is strictly positive and never better than the
    optimal beam, so it forces lambda_1 >= 1 + P ||H g_perp||^2 > 1.
    """
    g_perp = mk.orth_perp(mk.unit2(ch.g))
    hg = mk.matvec2(ch.H, g_perp)
    return 0.5 * math.log(1.0 + ch.P * mk.dot2(hg, hg))


def no_nonneg_roots(d_mat: mk.Mat2, g: mk.Vec2, lam: float) -> bool:
    """Root-sign lemma for a PD D, g^T D^{-1} g >= 1 and a multiplier lam > 0.

    The full-rank stationarity quadratic
    gamma^2 + (1 + c) gamma + c + (||g||^2 / lam)(c - 1), c = g^T D^{-1} g,
    has positive linear and constant coefficients, so it has no root >= 0
    and no full-rank covariance satisfies stationarity.  True when both the
    sign analysis and the larger root (when real) say so.
    """
    c = mk.quad2(mk.inv2(d_mat), g)
    lin = 1.0 + c
    const = c + (mk.dot2(g, g) / lam) * (c - 1.0)
    disc = lin * lin - 4.0 * const
    root_hi = 0.5 * (-lin + math.sqrt(disc)) if disc >= 0.0 else -math.inf
    return lin > 0.0 and const > 0.0 and root_hi < 0.0


def rotation(theta: float, reflect: bool = False) -> mk.Mat2:
    """The rotation by theta, followed by the reflection of the second axis
    when reflect is set."""
    c, s = math.cos(theta), math.sin(theta)
    q = ((c, -s), (s, c))
    if reflect:
        q = mk.matmul2(q, ((1.0, 0.0), (0.0, -1.0)))
    return q


def upper_value(ch: WiretapChannel, a: mk.Vec2) -> float:
    """The genie upper bound at a, maximized over covariances exactly (nats);
    an a not strictly inside the unit disk raises NoiseDegenerate."""
    return _solved_rate(coupling_gain_matrix(ch, a), ch.g, ch.P)[0]


def genie_bound_reference(ch: WiretapChannel, q: mk.Vec2, a: mk.Vec2) -> float:
    """U(S, a) at the beam S = P q q^T / ||q||^2 from its definition, in
    50-digit arithmetic from the float inputs (nats):

        (1/2) log [ det(I_3 + N^{-1} Hbar S Hbar^T) / (1 + g^T S g) ],

    with N^{-1} the literal inverse of the noise covariance [[I, a], [a^T, 1]]
    and Hbar = [H; g^T].
    """
    with mpmath.workdps(50):
        n_inv = mpmath.inverse(mpmath.matrix([[1, 0, a[0]], [0, 1, a[1]], [a[0], a[1], 1]]))
        q1, q2 = mpmath.mpf(q[0]), mpmath.mpf(q[1])
        m = [row[0] * q1 + row[1] * q2 for row in (ch.H[0], ch.H[1], ch.g)]  # Hbar q
        scale = ch.P / (q1 * q1 + q2 * q2)
        # I_3 + N^{-1} Hbar S Hbar^T, with Hbar S Hbar^T = scale m m^T.
        nm = [sum(n_inv[i, k] * m[k] for k in range(3)) for i in range(3)]
        rows = [[int(i == j) + scale * nm[i] * m[j] for j in range(3)] for i in range(3)]
        num = mpmath.det(mpmath.matrix(rows))
        return float((mpmath.log(num) - mpmath.log(1 + scale * m[2] ** 2)) / 2)


def disk_max_reference(d_mat: mk.Mat2, g: mk.Vec2, power: float) -> float:
    """max det(I + D S) / (1 + g^T S g) over PSD S with tr S <= P, in 50-digit
    arithmetic from the float inputs.

    Dinkelbach's iteration over S(z) = (P/2) [[1 + x, y], [y, 1 - x]],
    |z| <= 1, evaluating the ratio from z directly: at the ratio r the
    maximum of N - r Den over the disk is at z = v / 2 gamma if that lies in
    the disk and at v / |v| otherwise, with v = (P/2)(delta - r eps) and
    gamma = (P/2)^2 det D.  The origin, ratio 1, is compared at the end.
    """
    with mpmath.workdps(50):
        (d11, d12), (_, d22) = [[mpmath.mpf(x) for x in row] for row in d_mat]
        g1, g2 = mpmath.mpf(g[0]), mpmath.mpf(g[1])
        h = mpmath.mpf(power) / 2
        gamma = h * h * (d11 * d22 - d12 * d12)
        dx, dy, ex, ey = d11 - d22, 2 * d12, g1 * g1 - g2 * g2, 2 * g1 * g2

        def ratio(x, y):
            num = 1 + h * (d11 + d22 + dx * x + dy * y) + gamma * (1 - x * x - y * y)
            return num / (1 + h * (g1 * g1 + g2 * g2 + ex * x + ey * y))

        r = ratio(0, 0)
        for _ in range(1000):
            vx, vy = h * (dx - r * ex), h * (dy - r * ey)
            v = mpmath.hypot(vx, vy)
            if gamma > 0 and v <= 2 * gamma:
                z = (vx / (2 * gamma), vy / (2 * gamma))
            else:
                z = (vx / v, vy / v) if v else (1, 0)
            step = ratio(*z)
            if step <= r * (1 + mpmath.mpf(10) ** -45):
                return float(max(r, step, 1))
            r = step
        raise AssertionError("the reference iteration did not converge")


def gaussian_rate_reference(ch: WiretapChannel) -> float:
    """The best Gaussian secrecy rate over every covariance (nats), with
    D = H^T H formed in 50 digits so the Gram matrix's rounding is covered."""
    with mpmath.workdps(50):
        h = [[mpmath.mpf(x) for x in row] for row in ch.H]
        gram = [[h[0][i] * h[0][j] + h[1][i] * h[1][j] for j in range(2)] for i in range(2)]
        return float(mpmath.log(disk_max_reference(gram, ch.g, ch.P)) / 2)


@pytest.fixture
def example_a() -> WiretapChannel:
    """Identity main channel, eavesdropper gain (2, 0), unit power."""
    return WiretapChannel(((1.0, 0.0), (0.0, 1.0)), (2.0, 0.0), 1.0)


@pytest.fixture
def diag_example() -> WiretapChannel:
    """Diagonal main channel diag(0.9, 2), eavesdropper gain (2, 0)."""
    return WiretapChannel(((0.9, 0.0), (0.0, 2.0)), (2.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def suite1000() -> list[WiretapChannel]:
    """The fixed 1000-channel non-degraded random suite shared by the
    property and acceptance tests."""
    channels, _ = sample_general_channels(SUITE_SEED, 1000)
    return channels
