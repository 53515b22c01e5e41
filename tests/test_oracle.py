"""Oracle tests: the solved covariance search against a dense lattice and a
50-digit reference, the lattice witness, the exact bracket and its
optimality verdicts, root-sign verification, channel sampling, and
determinism."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disk_max_reference, genie_bound_reference, no_nonneg_roots, upper_value
from secrecy221 import (
    ChannelKind,
    WiretapChannel,
    brute_force_gaussian,
    capacity_certificate,
    classify,
    coupling_gain_matrix,
    optimal_beam,
    optimize_alpha,
    sample_general_channels,
    validate_covariance,
)
from secrecy221 import matkit as mk
from secrecy221 import oracle
from secrecy221.errors import NoiseDegenerate
from secrecy221.oracle import covariance_from_param
from secrecy221.tolerances import EPS_GRID, EPS_GRID_EXCESS, MAX_GAIN_SQ, MAX_SNR

I2 = ((1.0, 0.0), (0.0, 1.0))


# Reference: a dense covariance lattice, which evaluates every lattice point
# per call, and then searches the full-power face by a three-round bracket
# zoom around its best beam angle.  The solved search must reach the maximum
# of both up to rounding.
def _det(d):
    """det D of the float entries of a symmetric D, rounded once."""
    d11, d12, d22 = (Fraction(float(x)) for x in (d[0][0], d[0][1], d[1][1]))
    return float(d11 * d22 - d12 * d12)


def _dense_power_pairs(npower, power):
    """Triangular lattice on {p1, p2 >= 0, p1 + p2 <= P} with ~npower points,
    corners and origin included."""
    m = 1
    while (m + 2) * (m + 3) // 2 <= npower:
        m += 1
    lens = np.arange(m + 1, 0, -1)
    ii = np.repeat(np.arange(m + 1), lens)
    jj = np.arange(ii.shape[0]) - np.repeat(np.cumsum(lens) - lens, lens)
    return power * ii / m, power * jj / m


def _dense_direction_profile(d, g, phis):
    c = np.cos(phis)
    s = np.sin(phis)
    d1 = d[0, 0] * c * c + 2.0 * d[0, 1] * c * s + d[1, 1] * s * s
    d2 = d[0, 0] * s * s - 2.0 * d[0, 1] * c * s + d[1, 1] * c * c
    e1 = (g[0] * c + g[1] * s) ** 2
    e2 = (g[1] * c - g[0] * s) ** 2
    return d1, d2, e1, e2


def _dense_face_ratio(d, g, power, psis):
    d1, _, e1, _ = _dense_direction_profile(d, g, psis)
    return (1.0 + power * d1) / (1.0 + power * e1)


def _dense_zoom_face(d, g, power, psi0, h0):
    best_psi = psi0
    best = float(_dense_face_ratio(d, g, power, np.array([psi0]))[0])
    h = h0
    for _ in range(3):
        psis = best_psi + np.linspace(-0.5 * h, 0.5 * h, 33)
        r = _dense_face_ratio(d, g, power, psis)
        j = int(np.argmax(r))
        if float(r[j]) > best:
            best = float(r[j])
            best_psi = float(psis[j])
        h /= 16.0
    return best_psi, best


def _dense_lattice_max(d_mat, g, power, nphi, npower):
    """The first-occurrence maximum over every lattice point: (value, param)."""
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = _det(d)

    phis = np.arange(nphi) * (math.pi / nphi)
    d1, d2, e1, e2 = _dense_direction_profile(d, gv, phis)
    p1, p2 = _dense_power_pairs(npower, power)
    cross = det_d * (p1 * p2)
    num = 1.0 + np.outer(d1, p1) + np.outer(d2, p2) + cross[None, :]
    den = 1.0 + np.outer(e1, p1) + np.outer(e2, p2)
    ratio = num / den
    flat = int(np.argmax(ratio))
    i, k = divmod(flat, p1.shape[0])
    return float(ratio[i, k]), (float(phis[i]), float(p1[k]), float(p2[k]))


def dense_grid_max_ratio(d_mat, g, power, nphi, npower):
    """The dense lattice's maximum, then the zoomed face's if that is larger."""
    best, best_param = _dense_lattice_max(d_mat, g, power, nphi, npower)
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    phis = np.arange(nphi) * (math.pi / nphi)
    d1, _, e1, _ = _dense_direction_profile(d, gv, phis)
    face = (1.0 + power * d1) / (1.0 + power * e1)
    j = int(np.argmax(face))
    psi, face_best = _dense_zoom_face(d, gv, power, float(phis[j]), math.pi / nphi)
    if face_best > best:
        best = face_best
        best_param = (psi, power, 0.0)

    return best, best_param


def _dense_ratio(d, g, power, param):
    """The ratio at S = R(phi) diag(p1, p2) R(phi)^T, param = (phi, p1, p2),
    by the dense lattice's formula."""
    det_d = _det(d)
    phi, p1, p2 = param
    d1, d2, e1, e2 = _dense_direction_profile(d, np.asarray(g, dtype=float), np.array([phi]))
    num = 1.0 + d1 * p1 + d2 * p2 + det_d * (p1 * p2)
    return float((num / (1.0 + e1 * p1 + e2 * p2))[0])


def _pencil_max(d, g, power):
    """The largest eigenvalue of the pencil (I + P D, I + P g g^T), in
    50-digit arithmetic from the float inputs: the exact maximum over unit q
    of (1 + P q^T D q) / (1 + P (g^T q)^2), the full-power face's ratio."""
    with mpmath.workdps(50):
        p = mpmath.mpf(power)
        (d11, d12), (_, d22) = np.asarray(d, dtype=float).tolist()
        d11, d12, d22 = mpmath.mpf(d11), mpmath.mpf(d12), mpmath.mpf(d22)
        g1, g2 = mpmath.mpf(g[0]), mpmath.mpf(g[1])
        a11, a12, a22 = 1 + p * d11, p * d12, 1 + p * d22
        b11, b12, b22 = 1 + p * g1 * g1, p * g1 * g2, 1 + p * g2 * g2
        # det(A - lam B) = qa lam^2 - qb lam + qc; take the larger root.
        qa = b11 * b22 - b12 * b12
        qb = a11 * b22 + a22 * b11 - 2 * a12 * b12
        qc = a11 * a22 - a12 * a12
        return float((qb + mpmath.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa))


def check_against_dense(d, g, power, nphi, npower, reference=False):
    """Check the solved maximum against the dense reference lattice.

    No dense lattice point and no point of the reference's face zoom beats
    the solver's value by more than the rounding of one lattice point, and
    the returned maximizer (phi, p1, p2) is PSD with trace at most P and
    re-evaluates by the dense formula to that value.  With ``reference``,
    the value must also be the 50-digit Dinkelbach maximum and, on the rim,
    the 50-digit pencil eigenvalue.  Returns the solver's (value, param).
    """
    value, param = oracle._disk_max(d, g, power)
    dense, _ = dense_grid_max_ratio(d, g, power, nphi, npower)
    dm = np.asarray(d, dtype=float)
    det_d = abs(_det(dm))
    scale = 1.0 + 2.0 * float(np.linalg.norm(dm)) * power + det_d * power * power
    assert dense - value <= 1e-9 * scale
    _, p1, p2 = param
    assert min(p1, p2) >= 0.0
    assert p1 + p2 <= power * (1.0 + 1e-15)
    assert math.isclose(_dense_ratio(dm, g, power, param), value, rel_tol=1e-15)
    if reference:
        exact = disk_max_reference(d, g, power)
        assert abs(value - exact) <= 1e-14 * exact
        if p2 == 0.0 and p1 == power:
            exact = _pencil_max(d, g, power)
            assert abs(value - exact) <= 1e-14 * exact
    return value, param


def _degraded(ch):
    """The channel with g rescaled to ||H^-T g|| = 1/2: Degraded."""
    return WiretapChannel(ch.H, mk.scale2(0.5 / classify(ch).eve_norm, ch.g), ch.P)


class TestBruteForceGaussian:
    def test_example_a_finds_known_optimum(self, example_a):
        s_best, rate = brute_force_gaussian(example_a)
        assert math.isclose(rate, 0.5 * math.log(2.0), rel_tol=1e-15)
        (l1, l2), v1 = mk.sym_eig2(s_best.S)
        assert l2 <= 1e-15  # unit rank
        assert abs(mk.dot2(v1, (0.0, 1.0))) >= 1.0 - 1e-15  # beam along (0, 1)

    def test_degraded_example_uses_full_power(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        s_best, rate = brute_force_gaussian(ch)
        assert rate >= optimal_beam(ch).rate - 1e-12
        assert s_best.S[0][0] + s_best.S[1][1] >= ch.P - 1e-15

    def test_soundness_never_exceeds_closed_form(self, suite1000):
        for ch in suite1000[:100]:
            _, rate = brute_force_gaussian(ch)
            assert rate <= optimal_beam(ch).rate + 1e-12

    def test_solved_rate_is_the_closed_form(self, suite1000):
        # The search has no resolution to refine: on non-degraded channels
        # its rate is the closed form's up to rounding.
        for ch in suite1000[:100]:
            closed = optimal_beam(ch).rate
            _, rate = brute_force_gaussian(ch)
            assert abs(closed - rate) <= 1e-14 * max(1.0, closed)

    def test_interior_optimum_is_solved_and_the_lattice_converges_to_it(self):
        # A degraded channel whose optimum is an interior full-rank mixture:
        # the solver reaches it exactly, and the witness lattice approaches
        # it from below, a 64x point budget cutting the gap at least
        # eightfold (it scales like the squared spacing, up to
        # lattice-alignment luck at any single resolution).
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        s_star = math.sqrt(18.0) - 4.0
        exact = 0.5 * math.log((1 + s_star) * (2 - s_star) / (1 + s_star / 4))
        s_best, rate = brute_force_gaussian(ch)
        assert math.isclose(rate, exact, rel_tol=1e-15)
        assert math.isclose(min(s_best.S[0][0], s_best.S[1][1]), s_star, rel_tol=1e-7)

        def lattice(nphi, npower):
            return 0.5 * math.log(oracle._grid_max_ratio(ch.gram(), ch.g, ch.P, nphi, npower))

        coarse, fine = lattice(64, 64), lattice(64, 4096)
        assert exact - fine >= -1e-12
        assert exact - fine <= (exact - coarse) / 8.0

    def test_determinism_bit_for_bit(self):
        ch = WiretapChannel(((0.7, -0.3), (0.1, 1.4)), (1.2, 0.4), 1.0)
        s1, r1 = brute_force_gaussian(ch)
        s2, r2 = brute_force_gaussian(ch)
        assert r1 == r2
        assert s1.S == s2.S

    def test_lattice_rejects_tiny_grid(self, example_a):
        for grid in ((1, 64), (64, 1)):
            with pytest.raises(ValueError):
                oracle._grid_max_ratio(example_a.gram(), example_a.g, example_a.P, *grid)


class TestBruteForceUpper:
    def test_example_a_at_tight_correlation(self, example_a):
        value = upper_value(example_a, (0.5, 0.0))
        assert math.isclose(value, 0.5 * math.log(2.0), rel_tol=1e-15)

    def test_zero_correlation_is_looser(self, example_a):
        value = upper_value(example_a, (0.0, 0.0))
        assert value >= 0.5 * math.log(2.0) + 1e-3

    def test_unit_rank_at_tight_correlation(self, suite1000):
        from secrecy221 import optimize_alpha

        for ch in suite1000[:20]:
            tc = optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            d = coupling_gain_matrix(ch, tc.a_star)
            value, param = oracle._solved_rate(d, ch.g, ch.P)
            s_best = validate_covariance(covariance_from_param(*param), ch.P)
            (l1, l2), _ = mk.sym_eig2(s_best.S)
            assert l2 <= 1e-3 * ch.P
            assert value <= optimal_beam(ch).rate + 1e-12

    def test_degenerate_correlation_rejected(self, example_a):
        for a in ((0.8, 0.6), (math.nan, 0.0)):
            with pytest.raises(NoiseDegenerate):
                upper_value(example_a, a)
        # Outside the unit disk A(a) would be I or indefinite, not a bound.
        for a in ((2.0, 0.0), (0.0, 1.5), (math.nan, 0.0)):
            with pytest.raises(NoiseDegenerate):
                coupling_gain_matrix(example_a, a)

    def test_beam_bounds_each_search_from_below(self):
        # The genie bound at the feasible beams S = P q q^T / ||q||^2, q in
        # {q_a, q_perp}, never exceeds the solved maximum by more than
        # EPS_GRID_EXCESS, from P = 1e-10 to 1e14.  The bound is evaluated
        # from its 3x3 definition in 50 digits.
        channels, _ = sample_general_channels(19, 200)
        rng = random.Random(19)
        for _ in range(2000):
            ch = rng.choice(channels).with_power(10.0 ** rng.uniform(-10.0, 14.0))
            r = math.sqrt(rng.random()) * (1.0 - 1e-6)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            a = (r * math.cos(ang), r * math.sin(ang))
            q_a = optimal_beam(ch).q_a
            solved = upper_value(ch, a)
            for q in (q_a, mk.orth_perp(q_a)):
                assert genie_bound_reference(ch, q, a) <= solved + EPS_GRID_EXCESS


# Dense reference lattices, from the smallest (m = 1) to the Degraded
# certificate's 512^2 witness.
REFERENCE_GRIDS = [(2, 2), (8, 3), (100, 256), (64, 4096), (256, 256), (512, 512)]


class TestSolvedSearch:
    @pytest.fixture
    def channels(self, example_a, suite1000):
        return [example_a, suite1000[0], suite1000[1], _degraded(suite1000[2])]

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
    def test_gaussian_matches_dense_reference(self, channels, grid):
        for ch in channels:
            value, param = check_against_dense(ch.gram(), ch.g, ch.P, *grid, reference=True)
            s_best, rate = brute_force_gaussian(ch)
            assert rate == 0.5 * math.log(value)
            assert s_best == validate_covariance(covariance_from_param(*param), ch.P)

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
    def test_upper_matches_dense_reference(self, channels, grid):
        for ch in channels[:3]:
            for a in ((0.0, 0.0), (0.3, -0.6)):
                d = coupling_gain_matrix(ch, a)
                value, param = check_against_dense(d, ch.g, ch.P, *grid, reference=True)
                bound = upper_value(ch, a)
                assert bound == 0.5 * math.log(value)
                assert oracle._solved_rate(d, ch.g, ch.P) == (bound, param)

    def test_all_ties_return_the_origin(self):
        # D = 0 and g = 0 make every ratio 1: the solver returns the origin,
        # and the dense reference and the witness lattice find 1 too.
        zero = ((0.0, 0.0), (0.0, 0.0))
        grid = (100, 256)
        assert oracle._disk_max(zero, (0.0, 0.0), 1.0) == (1.0, (0.0, 0.0, 0.0))
        assert dense_grid_max_ratio(zero, (0.0, 0.0), 1.0, *grid) == (1.0, (0.0, 0.0, 0.0))
        assert oracle._grid_max_ratio(zero, (0.0, 0.0), 1.0, *grid) == 1.0

    def test_value_searches_build_no_covariance(self, monkeypatch):
        # Only the value of the Degraded rate is read, so a Degraded
        # certificate builds no maximizing covariance.
        calls = []
        real = oracle.covariance_from_param

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "covariance_from_param", counted)
        cert = capacity_certificate(WiretapChannel(I2, (0.5, 0.0), 1.0))
        assert cert.kind is ChannelKind.DEGRADED
        assert calls == []

    @pytest.mark.parametrize(
        "d11,d12,d22",
        [
            (2.0, 3.0, 4.5),  # exact rank one: 9 - 9
            (0.1, -0.1, 0.1),  # rank one: the same float three times
            (1e150, -1e150, 1e150),
            (1e-150, 1e-150, 1e-150),
            (1.0 + 2.0**-52, 1.0, 1.0 - 2.0**-52),  # -2^-104; the float formula gives 0
            (1e150, 1e-150, 1e-150),
            (1e150, 0.0, 1e150),
            (1e-150, 0.0, 1e-150),
            (1e-150, -1e-160, 1e-159),  # subnormal: 1e-309 - 1e-320
            (3e-160, 1e-160, 3e-160),  # subnormal, with cancellation
            (0.0, 0.0, 0.0),
            (0.0, -3.0, 5.0),
            (7.0, -0.0, 3.0),
        ],
    )
    def test_sym_det_rounds_the_exact_determinant_once(self, d11, d12, d22):
        exact = float(Fraction(d11) * Fraction(d22) - Fraction(d12) ** 2)
        assert oracle._sym_det(((d11, d12), (d12, d22))) == exact

    def test_sym_det_on_random_entries(self):
        # Log-uniform magnitudes from 1e-150 to 1e150, random signs on d12,
        # and d12 drawn near sqrt(d11 d22) half the time, where the float
        # formula cancels.
        rng = random.Random(17)
        for _ in range(2000):
            d11 = 10.0 ** rng.uniform(-150.0, 150.0)
            d22 = 10.0 ** rng.uniform(-150.0, 150.0)
            if rng.random() < 0.5:
                d12 = math.sqrt(d11) * math.sqrt(d22) * (1.0 + rng.uniform(-1e-15, 1e-15))
            else:
                d12 = 10.0 ** rng.uniform(-150.0, 150.0)
            d12 = rng.choice((-1.0, 1.0)) * d12
            exact = float(Fraction(d11) * Fraction(d22) - Fraction(d12) ** 2)
            assert oracle._sym_det(((d11, d12), (d12, d22))) == exact

    def test_candidates_are_the_lattice_origin_and_full_power_points(self):
        # The witness lattice's candidates are the dense lattice's origin and
        # its points (i, m - i), in lattice order, for every lattice side m.
        for npower in range(2, 1000):
            cp1, cp2 = oracle._candidate_powers(npower, 2.0)
            p1, p2 = _dense_power_pairs(npower, 2.0)
            face = np.isclose(p1 + p2, 2.0, rtol=1e-9, atol=0.0)
            assert (p1[0], p2[0]) == (0.0, 0.0)
            assert np.array_equal(cp1, np.concatenate(([0.0], p1[face])))
            assert np.array_equal(cp2, np.concatenate(([0.0], p2[face])))

    def test_lattice_witness_holds_the_dense_maximum(self, channels):
        # The witness evaluates only each angle's origin and full-power
        # candidates; by the lemma they hold the dense lattice's maximum.
        for ch in channels:
            d = ch.gram()
            dm = np.asarray(d, dtype=float)
            det_d = abs(_det(dm))
            scale = 1.0 + 2.0 * float(np.linalg.norm(dm)) * ch.P + det_d * ch.P**2
            for grid in REFERENCE_GRIDS:
                lattice = oracle._grid_max_ratio(d, ch.g, ch.P, *grid)
                dense, _ = _dense_lattice_max(d, ch.g, ch.P, *grid)
                assert abs(lattice - dense) <= 1e-9 * scale

    def test_traced_memory_stays_small(self, example_a):
        # The lattice engines peaked at 6.26 MB (dense, one 512^2 grid) down
        # to 0.56 MB (the candidates and the solved face).  The solved search
        # stores no array (0.65 kB), and a Degraded certificate's 512^2
        # witness lattice only its candidates (0.56 MB).  The caps add at
        # least 25% to those peaks.
        degraded = WiretapChannel(I2, (0.5, 0.0), 1.0)
        # One-time lazy set-up stays untraced.
        capacity_certificate(degraded)
        peaks = []
        for run in (
            lambda: brute_force_gaussian(example_a),
            lambda: capacity_certificate(degraded),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1e3
        assert peaks[1] <= 0.70e6


def _gain_matrix(kind, scale, u, g):
    """A test gain matrix D of the named shape, scaled by ``scale``."""
    if kind == "zero":
        return ((0.0, 0.0), (0.0, 0.0))
    if kind == "rank_one":
        return mk.matscale2(scale, mk.outer2(u, u))
    if kind == "eve_outer":
        return mk.outer2(g, g)
    if kind == "diagonal":
        return ((scale * u[0] ** 2, 0.0), (0.0, scale * u[1] ** 2))
    m = (u, (0.3 * u[1] - u[0], 1.0))
    return mk.matscale2(scale, mk.matmul2(mk.transpose2(m), m))


GAIN_KINDS = ["rank_one", "zero", "eve_outer", "diagonal", "full"]
coordinate = st.floats(-2.0, 2.0)


class TestDiskMaxIsExact:
    """The solved search holds the maximum: no dense lattice point and no
    point of the reference's face zoom beats its value by more than the
    rounding of one lattice point, its maximizer re-evaluates to that value,
    and it is the 50-digit maximum."""

    # Every shape of D the solver must survive: a rank-one D, whose
    # computed determinant may round to either sign; D = 0, where every
    # point ties when g = 0 too; D = g g^T, where every ratio is 1 up to
    # rounding; and diagonal and full-rank D.
    @pytest.mark.parametrize("kind", GAIN_KINDS)
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        u=st.tuples(coordinate, coordinate),
        g=st.tuples(coordinate, coordinate),
        zero_g=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        log_power=st.floats(-6.0, 12.0),
        nphi=st.integers(2, 41),
        npower=st.sampled_from([2, 3, 8, 256, 4096]),
    )
    def test_matches_dense_reference(
        self, kind, u, g, zero_g, log_scale, log_power, nphi, npower
    ):
        if zero_g:
            g = (0.0, 0.0)
        d = _gain_matrix(kind, 10.0**log_scale, u, g)
        check_against_dense(d, g, 10.0**log_power, nphi, npower)

    def test_rounding_slack_covers_all_ties(self):
        # D = g g^T at large P makes every ratio 1 up to rounding: only the
        # bound's slack holds the dense lattice's rounding-high points.
        g = (1.028825305674486, -0.7499319367515453)
        check_against_dense(mk.outer2(g, g), g, 46489514804.438446, 8, 256, reference=True)

    def test_matches_the_50_digit_reference(self):
        # A fixed battery across twelve decades of SNR either side of 1: the
        # main channel's gains of General and of Degraded channels, and a
        # genie bound's A(a).  Degraded channels put some optima inside the
        # disk.
        channels, _ = sample_general_channels(11, 40)
        optima = {"rim": 0, "interior": 0}
        for k in range(-12, 13, 2):
            for base in channels:
                ch = base.with_power(10.0**k)
                deg = _degraded(ch)
                for d, g in (
                    (ch.gram(), ch.g),
                    (deg.gram(), deg.g),
                    (coupling_gain_matrix(ch, (0.3, -0.6)), ch.g),
                ):
                    _, (_, _, p2) = check_against_dense(d, g, ch.P, 8, 8, reference=True)
                    optima["interior" if p2 > 0.0 else "rim"] += 1
        assert min(optima.values()) > 0


def _excess_reference(ch, a):
    """max det(I + A(a) S) / (1 + g^T S g) - 1 over PSD S with tr S <= P, in
    50-digit arithmetic from the float inputs, with the excess formed
    directly: ``disk_max_reference`` rounds the ratio, whose excess keeps
    few digits at low P.  Returns (excess, "interior" or "rim").

    Dinkelbach's iteration on the excess e: at the ratio 1 + e the maximum of
    N - (1 + e) Den over the disk is at w / 2 gamma, w = (P/2)(delta -
    (1 + e) eps), if that lies in the disk, and at w / |w| otherwise.
    """
    with mpmath.workdps(50):
        (h11, h12), (h21, h22) = [[mpmath.mpf(x) for x in row] for row in ch.H]
        g1, g2, a1, a2 = (mpmath.mpf(x) for x in (*ch.g, *a))
        k = 1 - a1 * a1 - a2 * a2
        v1, v2 = h11 * a1 + h21 * a2 - g1, h12 * a1 + h22 * a2 - g2
        d11 = h11 * h11 + h21 * h21 + v1 * v1 / k
        d12 = h11 * h12 + h21 * h22 + v1 * v2 / k
        d22 = h12 * h12 + h22 * h22 + v2 * v2 / k
        h = mpmath.mpf(ch.P) / 2
        gamma = h * h * (d11 * d22 - d12 * d12)
        dx, dy, ex, ey = d11 - d22, 2 * d12, g1 * g1 - g2 * g2, 2 * g1 * g2

        def excess(x, y):
            gap = h * (d11 + d22 - g1 * g1 - g2 * g2 + (dx - ex) * x + (dy - ey) * y)
            gap += gamma * (1 - x * x - y * y)
            return gap / (1 + h * (g1 * g1 + g2 * g2 + ex * x + ey * y))

        e = excess(0, 0)
        for _ in range(1000):
            wx, wy = h * (dx - (1 + e) * ex), h * (dy - (1 + e) * ey)
            w = mpmath.hypot(wx, wy)
            if gamma > 0 and w <= 2 * gamma:
                z, branch = (wx / (2 * gamma), wy / (2 * gamma)), "interior"
            else:
                z, branch = ((wx / w, wy / w) if w else (1, 0)), "rim"
            step = excess(*z)
            if step <= e * (1 + mpmath.mpf(10) ** -40):
                return max(e, step, 0), branch
            e = step
        raise AssertionError("the reference iteration did not converge")


class TestOptimalityBracket:
    """First-order optimality, proved by the exact bracket: the beam's exact
    excess rho, widened by EPS_GRID, bounds the genie bound at a* from
    above, and a beam 0.1 rad away falls below rho (1 - EPS_GRID)."""

    def test_passes_at_optimum(self, example_a):
        # The beam (0, 1) has excess 1 exactly, and the bound at a* = (1/2, 0)
        # is 1 + s22 <= 2: the bracket closes with no width at all.
        assert oracle._beam_excess(example_a, (0.0, 1.0)) == 1.0
        assert oracle._bound_at_most(example_a, (0.5, 0.0), 1.0)
        assert not oracle._bound_at_most(example_a, (0.5, 0.0), 1.0 - 2.0**-53)

    def test_fails_along_eavesdropper(self, example_a):
        # (1 + 1) / (1 + 4) - 1: a negative rate, which no bound certifies.
        rho = oracle._beam_excess(example_a, (1.0, 0.0))
        assert rho == -0.6
        assert not oracle._bound_at_most(example_a, (0.5, 0.0), rho)

    def test_random_suite_pass_and_perturbed_fail(self, suite1000):
        for ch in suite1000[:100]:
            beam = optimal_beam(ch)
            tc = optimize_alpha(ch, mk.orth_perp(beam.q_a))
            rho = oracle._beam_excess(ch, beam.q_a)
            assert oracle._bound_at_most(ch, tc.a_star, rho * (1.0 + EPS_GRID))
            rot = 0.1
            q = (
                beam.q_a[0] * math.cos(rot) - beam.q_a[1] * math.sin(rot),
                beam.q_a[0] * math.sin(rot) + beam.q_a[1] * math.cos(rot),
            )
            assert oracle._beam_excess(ch, q) < rho * (1.0 - EPS_GRID)


class TestExactBracket:
    def test_bound_decision_matches_the_50_digit_reference(self):
        rng = random.Random(20)
        branches = {"interior": 0, "rim": 0}
        for _ in range(1500):
            h = ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1)))
            ch = WiretapChannel(h, (rng.gauss(0, 1), rng.gauss(0, 1)), 10.0 ** rng.uniform(-8, 12))
            r, t = math.sqrt(rng.random()) * (1.0 - 1e-6), rng.uniform(0.0, 2.0 * math.pi)
            a = (r * math.cos(t), r * math.sin(t))
            ref, branch = _excess_reference(ch, a)
            branches[branch] += 1
            assert oracle._bound_at_most(ch, a, float(ref * (1 + mpmath.mpf(1e-12))))
            assert not oracle._bound_at_most(ch, a, float(ref * (1 - mpmath.mpf(1e-12))))
            assert ref > 0 and not oracle._bound_at_most(ch, a, 0.0)  # far below, too
        assert min(branches.values()) > 0

    def test_refuses_below_the_beam_and_the_flipped_eavesdropper(self):
        # A bound never falls below a feasible beam's excess, and a* of g is
        # not a tight correlation of -g.
        channels, _ = sample_general_channels(3, 200)
        for power in (1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12):
            for base in channels:
                ch = base.with_power(power)
                beam = optimal_beam(ch)
                a_star = optimize_alpha(ch, mk.orth_perp(beam.q_a)).a_star
                rho = oracle._beam_excess(ch, beam.q_a)
                assert not oracle._bound_at_most(ch, a_star, rho * (1.0 - 1e-6))
                flipped = WiretapChannel(ch.H, mk.scale2(-1.0, ch.g), ch.P)
                assert not oracle._bound_at_most(flipped, a_star, rho * (1.0 + EPS_GRID))

    @pytest.mark.parametrize(
        "a", [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (1.0 + 2.0**-52, 0.0), (3.0, -4.0)]
    )
    def test_refuses_a_outside_the_open_disk(self, example_a, a):
        # 0.6^2 + 0.8^2 rounds to 1 but exceeds it exactly.
        assert not oracle._bound_at_most(example_a, a, 1e300)

    def test_refuses_negative_rho(self):
        # With H = 0 and a = 0, A = g g^T and every ratio is 1 exactly.
        ch = WiretapChannel(((0.0, 0.0), (0.0, 0.0)), (1.0, 0.0), 1.0)
        assert oracle._bound_at_most(ch, (0.0, 0.0), 0.0)
        assert not oracle._bound_at_most(ch, (0.0, 0.0), -5e-324)

    @pytest.mark.parametrize(
        "q", [(3.0, -4.0), (1e150, 2e150), (-7e-300, 1e-310), (5e-324, 1e-320), (0.0, 2.5)]
    )
    def test_beam_excess_is_the_exact_ratio_rounded_once(self, q):
        ch = WiretapChannel(((1.5, -0.3), (0.7, 2.0)), (0.9, -1.1), 3e-7)
        assert oracle._beam_excess(ch, q) == float(_exact_excess(ch, q))

    @staticmethod
    def _power_chains(seed, count):
        """(fresh, child) pairs with equal (H, g, P): each of ``count`` random
        channels, with entries from 1e-150 up to what MAX_GAIN_SQ admits, is
        walked up and down a chain of powers from 1e-20 to 1e28 that MAX_SNR
        admits (or one power below 1e-20 if none is), so every child reads the
        integer image its chain's first channel made."""
        rng = random.Random(seed)
        for _ in range(count):
            scale = 10.0 ** rng.uniform(-150, 74)
            h = tuple(tuple(scale * rng.gauss(0, 1) for _ in range(2)) for _ in range(2))
            g = (scale * rng.gauss(0, 1), scale * rng.gauss(0, 1))
            gain_sq = max(mk.fro2(h) ** 2, mk.dot2(g, g))
            if gain_sq > MAX_GAIN_SQ:
                continue
            powers = [10.0**k for k in range(-20, 29, 4) if 10.0**k * gain_sq <= MAX_SNR]
            powers = powers or [MAX_SNR / (10.0 * gain_sq)]
            chain = WiretapChannel(h, g, powers[0])
            for power in powers + powers[::-1]:
                chain = chain.with_power(power)
                yield WiretapChannel(h, g, power), chain

    def test_beam_excess_is_exact_on_fresh_channels_and_power_chains(self):
        rng = random.Random(32)
        special = [(0.0, 1.5), (-0.0, -2.0), (2.5, -0.0), (5e-324, 1.0), (-0.7, -3e-310)]
        pairs = 0
        for fresh, child in self._power_chains(32, 50):
            pairs += 1
            drawn = (rng.gauss(0, 1) * 10.0 ** rng.uniform(-100, 100), rng.gauss(0, 1))
            for q in [*special, drawn]:
                exact = float(_exact_excess(fresh, q))
                assert oracle._beam_excess(fresh, q) == exact, (fresh, q)
                assert oracle._beam_excess(child, q) == exact, (child, q)
        assert pairs > 500

    def test_bound_decision_is_the_same_on_a_power_chain(self):
        # The image's denominator is the larger one on the tiny channels and
        # the per-call floats' on the others, so both rescalings are taken.
        rng = random.Random(33)
        decisions = set()
        for fresh, child in self._power_chains(33, 50):
            r, t = math.sqrt(rng.random()) * (1.0 - 1e-6), rng.uniform(0.0, 2.0 * math.pi)
            a = (r * math.cos(t), r * math.sin(t))
            rho = float(_excess_reference(fresh, a)[0])
            for scaled in (rho * (1.0 + 1e-12), rho * (1.0 - 1e-12), 0.0):
                decision = oracle._bound_at_most(fresh, a, scaled)
                assert oracle._bound_at_most(child, a, scaled) is decision, (fresh, a, scaled)
                decisions.add(decision)
        assert decisions == {True, False}

    def test_a_power_chain_converts_h_and_g_once(self, monkeypatch):
        # Every row reads both exact kernels; only the image converts H and g.
        real, h, g = mk._dyadic, ((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9)
        conversions = []

        def counted(*xs):
            if xs[:6] == (*h[0], *h[1], *g):
                conversions.append(xs)
            return real(*xs)

        monkeypatch.setattr(mk, "_dyadic", counted)
        ch = WiretapChannel(h, g, 1e-2)
        steps = 121
        for i in range(steps):
            ch = ch.with_power(10.0 ** (-2 + 12 * i / (steps - 1)))
            cert = capacity_certificate(ch)
            rho = oracle._beam_excess(ch, cert.beam.q_a)
            assert oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))
        assert len(conversions) == 1


def _exact_excess(ch, q):
    """(q^T q + P ||Hq||^2) / (q^T q + P (g^T q)^2) - 1 in exact rationals."""
    q1, q2 = Fraction(q[0]), Fraction(q[1])
    hq = [Fraction(r[0]) * q1 + Fraction(r[1]) * q2 for r in ch.H]
    gq = Fraction(ch.g[0]) * q1 + Fraction(ch.g[1]) * q2
    qq, hh, p = q1 * q1 + q2 * q2, hq[0] ** 2 + hq[1] ** 2, Fraction(ch.P)
    return (qq + p * hh) / (qq + p * gq * gq) - 1


class TestNoNonnegRoots:
    def test_example_a_coefficients(self, example_a):
        assert no_nonneg_roots(I2, (2.0, 0.0), 1.0)

    def test_boundary_of_hypothesis(self):
        # g^T D^{-1} g exactly 1: constant term stays positive.
        assert no_nonneg_roots(I2, (1.0, 0.0), 0.3)
        assert no_nonneg_roots(I2, (1.0, 0.0), 100.0)

    def test_random_instances(self):
        rng = random.Random(61)
        for _ in range(1000):
            m = ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1)))
            d = mk.matadd2(
                mk.matmul2(mk.transpose2(m), m), mk.matscale2(0.05, I2)
            )
            g_dir = mk.unit2((rng.gauss(0, 1), rng.gauss(0, 1)))
            base = mk.quad2(mk.inv2(d), g_dir)
            target = 1.0 + abs(rng.gauss(0, 2))
            g = mk.scale2(math.sqrt(target / base), g_dir)
            lam = abs(rng.gauss(0, 1)) + 1e-3
            assert no_nonneg_roots(d, g, lam)


class TestSampling:
    def test_deterministic(self):
        a, na = sample_general_channels(123, 5)
        b, nb = sample_general_channels(123, 5)
        assert a == b
        assert na == nb

    def test_all_general(self):
        from secrecy221 import ChannelKind, classify

        channels, attempts = sample_general_channels(7, 50)
        assert attempts >= 50
        for ch in channels:
            assert classify(ch).kind is ChannelKind.GENERAL

    def test_covariance_from_param_matches_manual(self):
        s = covariance_from_param(0.3, 0.6, 0.2)
        c, sn = math.cos(0.3), math.sin(0.3)
        q1 = (c, sn)
        q2 = (-sn, c)
        manual = mk.matadd2(
            mk.matscale2(0.6, mk.outer2(q1, q1)), mk.matscale2(0.2, mk.outer2(q2, q2))
        )
        assert max(
            abs(s[i][j] - manual[i][j]) for i in range(2) for j in range(2)
        ) <= 1e-15
        assert np.isclose(s[0][0] + s[1][1], 0.8)
