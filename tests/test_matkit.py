"""Kernel tests: closed-form inverses and eigensolvers.

Derived expectations come from independent routes: reconstruction products,
the explicit characteristic polynomial of the generalized problem, direct
inversion, and identity products.
"""

import math
import random

import numpy as np
import pytest

from secrecy221 import matkit as mk
from secrecy221.errors import SingularMatrix

I2 = ((1.0, 0.0), (0.0, 1.0))


def rand_mat2(rng) -> mk.Mat2:
    return ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1)))


def rand_sym2(rng) -> mk.Mat2:
    a, b, d = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
    return ((a, b), (b, d))


def rand_spd2(rng, shift: float = 0.1) -> mk.Mat2:
    m = rand_mat2(rng)
    g = mk.matmul2(mk.transpose2(m), m)
    return mk.matadd2(g, mk.matscale2(shift, I2))


def rand_rank1_weight(rng) -> tuple[float, mk.Vec2]:
    return abs(rng.gauss(0, 2)), (rng.gauss(0, 1), rng.gauss(0, 1))


def rank1_pencil(c: float, v: mk.Vec2) -> mk.Mat2:
    """B = I + c v v^T."""
    return mk.matadd2(I2, mk.matscale2(c, mk.outer2(v, v)))


def max_abs_diff2(a: mk.Mat2, b: mk.Mat2) -> float:
    return max(abs(a[i][j] - b[i][j]) for i in range(2) for j in range(2))


class TestInv2:
    def test_identity(self):
        assert mk.inv2(I2) == I2

    def test_diagonal(self):
        assert mk.inv2(((2.0, 0.0), (0.0, 4.0))) == ((0.5, 0.0), (0.0, 0.25))

    def test_permutation_is_involution(self):
        p = ((0.0, 1.0), (1.0, 0.0))
        assert mk.inv2(p) == p

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mk.inv2(((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(SingularMatrix):
            mk.inv2(((0.0, 0.0), (0.0, 0.0)))

    def test_double_inverse_is_identity_map(self):
        rng = random.Random(101)
        for _ in range(1000):
            m = rand_mat2(rng)
            if abs(mk.det2(m)) < 1e-6:
                continue
            back = mk.inv2(mk.inv2(m))
            assert max_abs_diff2(back, m) <= 1e-10 * max(1.0, mk.fro2(m))

    def test_product_is_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rand_mat2(rng)
            if abs(mk.det2(m)) < 1e-6:
                continue
            assert max_abs_diff2(mk.matmul2(m, mk.inv2(m)), I2) <= 1e-10


class TestSymEig2:
    def test_diagonal(self):
        (l1, l2), v1 = mk.sym_eig2(((3.0, 0.0), (0.0, 1.0)))
        assert (l1, l2) == (3.0, 1.0)
        assert v1 == (1.0, 0.0)

    def test_circulant(self):
        (l1, l2), v1 = mk.sym_eig2(((2.0, 1.0), (1.0, 2.0)))
        assert math.isclose(l1, 3.0, rel_tol=1e-14)
        assert math.isclose(l2, 1.0, rel_tol=1e-14)
        r = 1.0 / math.sqrt(2.0)
        assert math.isclose(v1[0], r, rel_tol=1e-14)
        assert math.isclose(v1[1], r, rel_tol=1e-14)

    def test_reconstruction_on_random(self):
        # V diag(l) V^T must reproduce the input, with V = (v1, v1 rotated
        # 90 degrees): the symmetric matrix's other eigenvector.
        rng = random.Random(42)
        for _ in range(10_000):
            m = rand_sym2(rng)
            (l1, l2), v1 = mk.sym_eig2(m)
            v2 = mk.orth_perp(v1)
            rec = mk.matadd2(
                mk.matscale2(l1, mk.outer2(v1, v1)),
                mk.matscale2(l2, mk.outer2(v2, v2)),
            )
            assert max_abs_diff2(rec, m) <= 1e-10 * max(1.0, mk.fro2(m))

    def test_orthonormal_and_sign_convention(self):
        rng = random.Random(3)
        for _ in range(2000):
            m = rand_sym2(rng)
            (l1, l2), v1 = mk.sym_eig2(m)
            assert l1 >= l2
            assert abs(mk.norm2(v1) - 1.0) <= 1e-12
            first = v1[0] if v1[0] != 0.0 else v1[1]
            assert first > 0.0


class TestGenRayleighMax:
    """The top eigenpair of the pencil (A, I + c v v^T) maximizes the
    generalized Rayleigh quotient q^T A q / q^T B q."""

    def test_diagonal_case(self):
        # B = diag(5, 1) = I + 4 e1 e1^T
        (lam, _), q = mk.gen_eig2_rank1(
            ((2.0, 0.0), (0.0, 2.0)), mk.rank1_inv_sqrt(4.0, (1.0, 0.0))
        )
        assert lam == 2.0
        assert q == (0.0, 1.0)

    def test_identity_pair(self):
        (lam, _), q = mk.gen_eig2_rank1(I2, mk.rank1_inv_sqrt(0.0, (1.0, 0.0)))
        assert lam == 1.0
        assert q == (1.0, 0.0)

    def test_against_characteristic_polynomial(self):
        # det(A - lambda B) = det(B) l^2 - (a00 b11 + a11 b00 - 2 a01 b01) l + det(A)
        rng = random.Random(17)
        for _ in range(500):
            a = rand_spd2(rng)
            c, v = rand_rank1_weight(rng)
            b = rank1_pencil(c, v)
            (lam, _), q = mk.gen_eig2_rank1(a, mk.rank1_inv_sqrt(c, v))
            c2 = mk.det2(b)
            c1 = -(a[0][0] * b[1][1] + a[1][1] * b[0][0] - 2.0 * a[0][1] * b[0][1])
            c0 = mk.det2(a)
            disc = math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))
            root_max = (-c1 + disc) / (2.0 * c2)
            assert math.isclose(lam, root_max, rel_tol=1e-10)
            # eigen relation B^{-1} A q = lam q
            resid = mk.sub2(
                mk.matvec2(mk.inv2(b), mk.matvec2(a, q)), mk.scale2(lam, q)
            )
            assert mk.norm2(resid) <= 1e-10 * max(1.0, lam)

    def test_maximality_over_random_directions(self):
        rng = random.Random(23)
        for _ in range(10):
            a = rand_spd2(rng)
            c, v = rand_rank1_weight(rng)
            b = rank1_pencil(c, v)
            (lam, _), _ = mk.gen_eig2_rank1(a, mk.rank1_inv_sqrt(c, v))
            for _ in range(100):
                ang = rng.uniform(0.0, 2.0 * math.pi)
                q = (math.cos(ang), math.sin(ang))
                quotient = mk.quad2(a, q) / mk.quad2(b, q)
                assert quotient <= lam * (1.0 + 1e-12)


class TestGenEig2Rank1:
    def test_matches_generic_solver(self):
        # Reference: numpy's general eigensolver on B^{-1} A.
        rng = random.Random(19)
        for _ in range(500):
            a = rand_spd2(rng)
            c, v = rand_rank1_weight(rng)
            b = rank1_pencil(c, v)
            (l1, l2), q1 = mk.gen_eig2_rank1(a, mk.rank1_inv_sqrt(c, v))
            m = np.linalg.solve(np.array(b), np.array(a))
            w, vecs = np.linalg.eig(m)
            order = np.argsort(w.real)[::-1]
            g1, g2 = (float(w.real[k]) for k in order)
            p1 = vecs[:, order[0]].real
            p1 = p1 / np.linalg.norm(p1)
            assert math.isclose(l1, g1, rel_tol=1e-10)
            assert math.isclose(l2, g2, rel_tol=1e-9, abs_tol=1e-12)
            assert abs(abs(mk.dot2(q1, (float(p1[0]), float(p1[1])))) - 1.0) <= 1e-9

    def test_stable_at_extreme_scale(self):
        # B's small eigenvalue is exactly 1; the structured route must keep
        # the generalized spectrum accurate when c ||v||^2 is enormous.
        a = ((1.0 + 1e9 * 2.0, 0.0), (0.0, 1.0 + 1e9 * 0.5))
        (l1, l2), q1 = mk.gen_eig2_rank1(a, mk.rank1_inv_sqrt(1e9, (1.0, 0.0)))
        # pencil diag(1 + 2e9, 1 + 5e8) vs diag(1 + 1e9, 1)
        assert math.isclose(l1, 1.0 + 1e9 * 0.5, rel_tol=1e-12)
        assert math.isclose(l2, (1.0 + 2e9) / (1.0 + 1e9), rel_tol=1e-12)
        assert q1 == (0.0, 1.0)

    def test_zero_weight_reduces_to_symmetric(self):
        a = ((2.0, 1.0), (1.0, 2.0))
        (l1, l2), v1 = mk.gen_eig2_rank1(a, mk.rank1_inv_sqrt(0.0, (0.3, 0.4)))
        assert math.isclose(l1, 3.0, rel_tol=1e-14)
        assert math.isclose(l2, 1.0, rel_tol=1e-14)
        assert math.isclose(v1[0], 1.0 / math.sqrt(2), rel_tol=1e-14)



def _bits(xs) -> list[str]:
    """Floats as hex, so -0.0 and 0.0 differ and equality is bitwise."""
    return [float(x).hex() for x in xs]


def _reference_sym_eig2(m):
    """The symmetric 2x2 eigen-solve as one function, formula for formula."""
    a, d, b = m[0][0], m[1][1], 0.5 * (m[0][1] + m[1][0])
    if b == 0.0:
        return ((a, d), (1.0, 0.0)) if a >= d else ((d, a), (0.0, 1.0))
    s = math.hypot(a - d, 2.0 * b)
    l1, l2 = 0.5 * ((a + d) + s), 0.5 * ((a + d) - s)
    u, w = (b, l1 - a), (l1 - d, b)
    v1 = mk.unit2(u if u[0] * u[0] + u[1] * u[1] >= w[0] * w[0] + w[1] * w[1] else w)
    return (l1, l2), mk._sign_fix(v1)


def _reference_pencil(a, c, v):
    """The rank-one pencil solve with B^{-1/2} and det B formed inline."""
    n2 = v[0] * v[0] + v[1] * v[1]
    det_b = 1.0 + c * n2
    if c == 0.0 or n2 == 0.0:
        bih = I2
    else:
        r = (1.0 / math.sqrt(det_b) - 1.0) / n2
        bih = ((1.0 + r * v[0] * v[0], r * v[0] * v[1]),
               (r * v[0] * v[1], 1.0 + r * v[1] * v[1]))
    (l1, l2), w1 = _reference_sym_eig2(mk.matmul2(mk.matmul2(bih, a), bih))
    if l1 != 0.0:
        l2 = mk.det2(a) / (det_b * l1)
    return (l1, l2), mk._sign_fix(mk.unit2(mk.matvec2(bih, w1)))


def _eigen_battery(rng):
    """Symmetric 2x2s: random across 1e-150..1e150, b == 0, ties, near rank
    one, and products whose off-diagonals differ by rounding."""
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        a, b, d = (rng.gauss(0, 1) * scale for _ in range(3))
        yield ((a, b), (b, d))
        yield ((a, 0.0), (0.0, d))
        yield ((d, 0.0), (0.0, a))
        yield ((a, 0.0), (0.0, a))
        yield ((a, b), (b, a))
        u = (rng.gauss(0, 1), rng.gauss(0, 1))
        eps = 10.0 ** rng.uniform(-17.0, -8.0)
        yield mk.matadd2(mk.matscale2(scale, mk.outer2(u, u)), ((eps * scale, 0.0), (0.0, 0.0)))
        m = rand_mat2(rng)
        yield mk.matmul2(mk.matmul2(mk.transpose2(m), ((a, b), (b, d))), m)
        yield ((10.0 ** rng.uniform(-150.0, 150.0), b), (b, 10.0 ** rng.uniform(-150.0, 150.0)))
    yield ((0.0, 0.0), (0.0, 0.0))
    yield ((-0.0, 0.0), (0.0, 0.0))


class TestEigenvaluesOnly:
    """The eigenvalue-only solvers return, bit for bit, the eigenvalues of
    the solvers that also return an eigenvector."""

    def test_sym_eigvals2_is_sym_eig2s_eigenvalues(self):
        for m in _eigen_battery(random.Random(2501)):
            pair, vec = mk.sym_eig2(m)
            assert _bits(mk.sym_eigvals2(m)) == _bits(pair), m
            ref_pair, ref_vec = _reference_sym_eig2(m)
            assert _bits(pair + vec) == _bits(ref_pair + ref_vec), m

    def test_pencil_solvers_on_the_shared_factor(self):
        rng = random.Random(2502)
        gains = [10.0 ** e for e in range(-60, 61, 6)]
        powers = [10.0 ** e for e in range(-18, 29, 2)]
        for gain in gains:
            for power in powers:
                h = mk.scale2(gain, (rng.gauss(0, 1), rng.gauss(0, 1)))
                h2 = mk.scale2(gain, (rng.gauss(0, 1), rng.gauss(0, 1)))
                g = mk.scale2(gain, (rng.gauss(0, 1), rng.gauss(0, 1)))
                gram = mk.matmul2(mk.transpose2((h, h2)), (h, h2))
                beam = mk.matadd2(I2, mk.matscale2(power, gram))
                q = mk.unit2((rng.gauss(0, 1), rng.gauss(0, 1)))
                theta = abs(rng.gauss(0, 1)) * gain * gain
                bound = mk.matadd2(beam, mk.matscale2(power * theta, mk.outer2(q, q)))
                for c, v in ((power, g), (0.0, g), (power, (0.0, 0.0))):
                    factor = mk.rank1_inv_sqrt(c, v)
                    for a in (beam, bound):
                        ref_pair, ref_vec = _reference_pencil(a, c, v)
                        pair, vec = mk.gen_eig2_rank1(a, factor)
                        assert _bits(pair + vec) == _bits(ref_pair + ref_vec)
                        assert _bits(mk.gen_eigvals2_rank1(a, factor)) == _bits(ref_pair)


class TestOrthPerp:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((1.0, 0.0), (0.0, 1.0)),
            ((0.0, 1.0), (-1.0, 0.0)),
            (
                (1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
                (-1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
            ),
        ],
    )
    def test_rotation(self, v, expected):
        got = mk.orth_perp(v)
        assert math.isclose(got[0], expected[0], abs_tol=1e-15)
        assert math.isclose(got[1], expected[1], abs_tol=1e-15)
        assert abs(mk.dot2(got, v)) <= 1e-15
