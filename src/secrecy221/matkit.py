"""Closed-form dense linear algebra for 2x2 real matrices.

Everything here is exact-formula arithmetic on plain tuples: determinants,
inverses, the symmetric eigenproblem, and the generalized eigenproblem for
a pencil whose second matrix is a rank-one update of the identity, and
the exact integer image of floats that the exact kernels compute with.
No iterative solver is used anywhere, so there is no convergence ambiguity
and results are bit-reproducible.

Vectors are ``(x, y)`` tuples; matrices are row-major tuples of row tuples.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from .errors import SingularMatrix
from .tolerances import EPS_SING

Vec2 = tuple[float, float]
Mat2 = tuple[Vec2, Vec2]


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


def quad2(m: Mat2, v: Vec2) -> float:
    """Quadratic form v^T m v."""
    return dot2(v, matvec2(m, v))


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

def sym_eigvals2(m: Mat2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix in descending order, closed form.

    The off-diagonal is read as the mean of m[0][1] and m[1][0], so a product
    such as B^{-1/2} A B^{-1/2}, symmetric only up to rounding, may be passed
    as it is.
    """
    a = m[0][0]
    d = m[1][1]
    b = 0.5 * (m[0][1] + m[1][0])
    if b == 0.0:
        return (a, d) if a >= d else (d, a)
    s = math.hypot(a - d, 2.0 * b)
    return 0.5 * ((a + d) + s), 0.5 * ((a + d) - s)


def sym_eig2(m: Mat2) -> tuple[tuple[float, float], Vec2]:
    """Eigenvalues (``sym_eigvals2``) and top eigenvector of a symmetric 2x2.

    The eigenvector is a unit eigenvector of the larger eigenvalue, oriented
    so its first nonzero component is positive; for diagonal input it is an
    axis, (1, 0) on an exact tie.
    """
    l1, l2 = sym_eigvals2(m)
    a = m[0][0]
    d = m[1][1]
    b = 0.5 * (m[0][1] + m[1][0])
    if b == 0.0:
        return (l1, l2), ((1.0, 0.0) if a >= d else (0.0, 1.0))
    u: Vec2 = (b, l1 - a)
    w: Vec2 = (l1 - d, b)
    v1 = unit2(u if u[0] * u[0] + u[1] * u[1] >= w[0] * w[0] + w[1] * w[1] else w)
    return (l1, l2), _sign_fix(v1)


def rank1_inv_sqrt(c: float, v: Vec2) -> tuple[Mat2, float]:
    """(B^{-1/2}, det B) for B = I + c v v^T with c >= 0.

    B's eigenvalues are exactly {1 + c ||v||^2, 1}, so both are formed
    without the cancellation a generic route suffers when c ||v||^2 is huge.
    This pair is the ``factor`` the rank-one pencil solvers take.
    """
    n2 = v[0] * v[0] + v[1] * v[1]
    det_b = 1.0 + c * n2
    if c == 0.0 or n2 == 0.0:
        return eye2(), det_b
    r = (1.0 / math.sqrt(det_b) - 1.0) / n2
    return ((1.0 + r * v[0] * v[0], r * v[0] * v[1]),
            (r * v[0] * v[1], 1.0 + r * v[1] * v[1])), det_b


def gen_eigvals2_rank1(a: Mat2, factor: tuple[Mat2, float]) -> tuple[float, float]:
    """Eigenvalues of the pencil (A, B), B = I + c v v^T, in descending order.

    A is symmetric and ``factor`` is ``rank1_inv_sqrt(c, v)``.  The larger
    eigenvalue is that of B^{-1/2} A B^{-1/2}; the smaller comes from the
    product identity l1 l2 = det(A) / det(B) instead of a catastrophic
    subtraction.
    """
    bih, det_b = factor
    l1, l2 = sym_eigvals2(matmul2(matmul2(bih, a), bih))
    if l1 != 0.0:
        l2 = det2(a) / (det_b * l1)
    return l1, l2


def gen_eig2_rank1(a: Mat2, factor: tuple[Mat2, float]) -> tuple[tuple[float, float], Vec2]:
    """``gen_eigvals2_rank1``'s eigenvalues and the pencil's top eigenvector.

    The eigenvector is the unit eigenvector of the larger eigenvalue,
    oriented like ``sym_eig2``'s.
    """
    bih, det_b = factor
    (l1, l2), w1 = sym_eig2(matmul2(matmul2(bih, a), bih))
    if l1 != 0.0:
        l2 = det2(a) / (det_b * l1)
    return (l1, l2), _sign_fix(unit2(matvec2(bih, w1)))


# --------------------------------------------------------------------------
# orthogonal complement
# --------------------------------------------------------------------------

def orth_perp(v: Vec2) -> Vec2:
    """90-degree counterclockwise rotation (-y, x) of a unit vector."""
    return (-v[1], v[0])


# --------------------------------------------------------------------------
# exact integer form
# --------------------------------------------------------------------------

def _dyadic(*xs: float) -> tuple[list[int], int]:
    """The floats xs as integers over one power-of-two denominator d:
    ([x * d for x in xs], d), exactly.  A quotient of two integer
    polynomials in them rounds once, since int / int rounds correctly."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d
