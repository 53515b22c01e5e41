"""Closed-form dense linear algebra for 2x2 and 3x3 real matrices.

Everything here is exact-formula arithmetic on plain tuples: determinants,
inverses, the symmetric eigenproblem, the generalized eigenproblem for a
pencil whose second matrix is a rank-one update of the identity, and the
block inverse of the bordered noise covariance.
No iterative solver is used anywhere, so there is no convergence ambiguity
and results are bit-reproducible.

Vectors are ``(x, y)`` tuples; matrices are row-major tuples of row tuples.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from .errors import NoiseDegenerate, NotPositiveDefinite, SingularMatrix
from .tolerances import EPS_NORM, EPS_SING, EPS_UNIT

Vec2 = tuple[float, float]
Mat2 = tuple[Vec2, Vec2]
Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]


# --------------------------------------------------------------------------
# vector helpers
# --------------------------------------------------------------------------

def dot2(u: Vec2, v: Vec2) -> float:
    return u[0] * v[0] + u[1] * v[1]


def add2(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def sub2(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def scale2(c: float, v: Vec2) -> Vec2:
    return (c * v[0], c * v[1])


def norm2(v: Vec2) -> float:
    return math.hypot(v[0], v[1])


def unit2(v: Vec2) -> Vec2:
    """Normalize to unit length; raises on the zero vector."""
    n = norm2(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (v[0] / n, v[1] / n)


def outer2(u: Vec2, v: Vec2) -> Mat2:
    return ((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1]))


# --------------------------------------------------------------------------
# 2x2 matrix helpers
# --------------------------------------------------------------------------

def eye2() -> Mat2:
    return ((1.0, 0.0), (0.0, 1.0))


def matvec2(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def matmul2(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def transpose2(m: Mat2) -> Mat2:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def matadd2(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] + b[0][0], a[0][1] + b[0][1]),
        (a[1][0] + b[1][0], a[1][1] + b[1][1]),
    )


def matscale2(c: float, m: Mat2) -> Mat2:
    return ((c * m[0][0], c * m[0][1]), (c * m[1][0], c * m[1][1]))


def det2(m: Mat2) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def trace2(m: Mat2) -> float:
    return m[0][0] + m[1][1]


def quad2(m: Mat2, v: Vec2) -> float:
    """Quadratic form v^T m v."""
    return dot2(v, matvec2(m, v))


def symmetrize2(m: Mat2) -> Mat2:
    b = 0.5 * (m[0][1] + m[1][0])
    return ((m[0][0], b), (b, m[1][1]))


def fro2(m: Mat2) -> float:
    return math.sqrt(m[0][0] ** 2 + m[0][1] ** 2 + m[1][0] ** 2 + m[1][1] ** 2)


def _sign_fix(v: Vec2) -> Vec2:
    # Deterministic orientation: first nonzero component positive.
    x, y = v
    if x > 0.0:
        return v
    if x < 0.0:
        return (-x, -y)
    if y >= 0.0:
        return (0.0, y)
    return (0.0, -y)


# --------------------------------------------------------------------------
# inverses
# --------------------------------------------------------------------------

def inv2(m: Mat2) -> Mat2:
    """Closed-form 2x2 inverse.

    Raises SingularMatrix when |det| is below EPS_SING times the squared
    Frobenius norm, which keeps the test scale-invariant.
    """
    d = det2(m)
    scale = m[0][0] ** 2 + m[0][1] ** 2 + m[1][0] ** 2 + m[1][1] ** 2
    if abs(d) <= EPS_SING * scale:
        raise SingularMatrix(f"2x2 matrix is singular (det={d!r})")
    r = 1.0 / d
    return ((m[1][1] * r, -m[0][1] * r), (-m[1][0] * r, m[0][0] * r))


# --------------------------------------------------------------------------
# symmetric and generalized eigenproblems
# --------------------------------------------------------------------------

def sym_eig2(m: Mat2) -> tuple[tuple[float, float], tuple[Vec2, Vec2]]:
    """Eigendecomposition of a symmetric 2x2 matrix, closed form.

    Returns eigenvalues in descending order with an orthonormal pair of
    eigenvectors.  Each eigenvector is oriented so its first nonzero
    component is positive; for diagonal input the vectors are the axes, and
    an exact eigenvalue tie returns the identity basis.
    """
    a = m[0][0]
    d = m[1][1]
    b = 0.5 * (m[0][1] + m[1][0])
    if b == 0.0:
        if a >= d:
            return (a, d), ((1.0, 0.0), (0.0, 1.0))
        return (d, a), ((0.0, 1.0), (1.0, 0.0))
    s = math.hypot(a - d, 2.0 * b)
    l1 = 0.5 * ((a + d) + s)
    l2 = 0.5 * ((a + d) - s)
    u: Vec2 = (b, l1 - a)
    w: Vec2 = (l1 - d, b)
    v1 = unit2(u if u[0] * u[0] + u[1] * u[1] >= w[0] * w[0] + w[1] * w[1] else w)
    v1 = _sign_fix(v1)
    v2 = _sign_fix((-v1[1], v1[0]))
    return (l1, l2), (v1, v2)


def gen_eig2_rank1(
    a: Mat2, c: float, v: Vec2
) -> tuple[tuple[float, float], tuple[Vec2, Vec2]]:
    """Both eigenpairs of the pencil (A, B) with B = I + c v v^T, c >= 0.

    Exploits the rank-one structure: B's eigenvalues are exactly
    {1 + c ||v||^2, 1}, so B^{-1/2} and det B are computed without the
    cancellation a generic route suffers when c ||v||^2 is huge, and the
    smaller generalized eigenvalue comes from the product identity
    l1 l2 = det(A) / det(B) instead of a catastrophic subtraction.
    """
    if c < 0.0:
        raise NotPositiveDefinite("rank-one weight must be nonnegative")
    n2 = v[0] * v[0] + v[1] * v[1]
    det_b = 1.0 + c * n2
    if c == 0.0 or n2 == 0.0:
        bih = eye2()
    else:
        r = (1.0 / math.sqrt(det_b) - 1.0) / n2
        bih = ((1.0 + r * v[0] * v[0], r * v[0] * v[1]),
               (r * v[0] * v[1], 1.0 + r * v[1] * v[1]))
    cmat = symmetrize2(matmul2(matmul2(bih, symmetrize2(a)), bih))
    (l1, l2), (w1, w2) = sym_eig2(cmat)
    if l1 != 0.0:
        l2 = det2(symmetrize2(a)) / (det_b * l1)
    q1 = _sign_fix(unit2(matvec2(bih, w1)))
    q2 = _sign_fix(unit2(matvec2(bih, w2)))
    return (l1, l2), (q1, q2)


# --------------------------------------------------------------------------
# orthogonal complement
# --------------------------------------------------------------------------

def orth_perp(v: Vec2) -> Vec2:
    """90-degree counterclockwise rotation (-y, x) of a unit vector."""
    if abs(norm2(v) - 1.0) > EPS_UNIT:
        raise ValueError("orth_perp requires a unit vector")
    return (-v[1], v[0])


# --------------------------------------------------------------------------
# 3x3 helpers and the bordered noise covariance
# --------------------------------------------------------------------------

def eye3() -> Mat3:
    return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def det3(m: Mat3) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def matmul3(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def matadd3(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(a[i][j] + b[i][j] for j in range(3)) for i in range(3)
    )  # type: ignore[return-value]


def noise_cov3(a: Vec2) -> Mat3:
    """Joint covariance of the receiver/eavesdropper noises with cross term a."""
    return (
        (1.0, 0.0, a[0]),
        (0.0, 1.0, a[1]),
        (a[0], a[1], 1.0),
    )


def inv_N(a: Vec2) -> Mat3:
    """Block inverse of the bordered noise covariance.

    With k = 1 - ||a||^2 the inverse is
    [[I + a a^T / k, -a / k], [-a^T / k, 1 / k]].  It feeds route 1 of the
    genie bound, so the certificate's three-route comparison judges it.
    """
    n2 = a[0] * a[0] + a[1] * a[1]
    if not math.isfinite(n2):
        raise ValueError("noise correlation entries must be finite")
    if math.sqrt(n2) >= 1.0 - EPS_NORM:
        raise NoiseDegenerate(f"noise correlation norm {math.sqrt(n2)!r} is not < 1")
    r = 1.0 / (1.0 - n2)
    return (
        (1.0 + r * a[0] * a[0], r * a[0] * a[1], -r * a[0]),
        (r * a[0] * a[1], 1.0 + r * a[1] * a[1], -r * a[1]),
        (-r * a[0], -r * a[1], r),
    )
