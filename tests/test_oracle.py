"""Oracle tests: grid soundness and convergence, KKT verdicts, root-sign
verification, correlation sampling, and determinism."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_nonneg_roots
from secrecy221 import (
    WiretapChannel,
    beam_covariance,
    brute_force_gaussian,
    brute_force_upper,
    coupling_gain_matrix,
    kkt_check,
    min_over_a,
    optimal_beam,
    sample_general_channels,
    validate_covariance,
)
from secrecy221 import matkit as mk
from secrecy221 import oracle
from secrecy221.errors import NoiseDegenerate, NotUnitRank, PreconditionFailed
from secrecy221.oracle import CovParam, covariance_from_param
from secrecy221.tolerances import EPS_GRID, EPS_TRACE

I2 = ((1.0, 0.0), (0.0, 1.0))


# Reference: the dense grid engine, which evaluates every lattice point per
# call.  The candidate engine must reach its maximum up to rounding.
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


def dense_grid_max_ratio(d_mat, g, power, nphi, npower):
    d = np.asarray(d_mat, dtype=float)
    gv = np.asarray(g, dtype=float)
    det_d = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])

    phis = np.arange(nphi) * (math.pi / nphi)
    d1, d2, e1, e2 = _dense_direction_profile(d, gv, phis)
    p1, p2 = _dense_power_pairs(npower, power)
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
    psi, face_best = _dense_zoom_face(d, gv, power, float(phis[j]), math.pi / nphi)
    if face_best > best:
        best = face_best
        best_param = CovParam(psi, power, 0.0)

    rng = np.random.default_rng(0)
    u = rng.random((nphi, 3))
    phir = u[:, 0] * math.pi
    fr1 = u[:, 1]
    fr2 = u[:, 2]
    swap = fr1 + fr2 > 1.0
    fr1 = np.where(swap, 1.0 - fr1, fr1)
    fr2 = np.where(swap, 1.0 - fr2, fr2)
    rp1 = power * fr1
    rp2 = power * fr2
    rd1, rd2, re1, re2 = _dense_direction_profile(d, gv, phir)
    rnum = 1.0 + rd1 * rp1 + rd2 * rp2 + det_d * rp1 * rp2
    rden = 1.0 + re1 * rp1 + re2 * rp2
    rr = rnum / rden
    mbest = int(np.argmax(rr))
    if float(rr[mbest]) > best:
        best = float(rr[mbest])
        best_param = CovParam(float(phir[mbest]), float(rp1[mbest]), float(rp2[mbest]))

    return best, best_param


class TestBruteForceGaussian:
    def test_example_a_finds_known_optimum(self, example_a):
        s_best, rate = brute_force_gaussian(example_a, (256, 256))
        assert math.isclose(rate, 0.5 * math.log(2.0), rel_tol=1e-9)
        (l1, l2), (v1, _) = mk.sym_eig2(s_best.S)
        assert l2 <= 1e-3  # unit rank
        assert abs(mk.dot2(v1, (0.0, 1.0))) >= 1.0 - 1e-6  # beam near (0, 1)

    def test_degraded_example_uses_full_power(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        s_best, rate = brute_force_gaussian(ch, (256, 256))
        assert rate >= optimal_beam(ch).rate - 1e-12
        assert mk.trace2(s_best.S) >= ch.P - 0.05

    def test_soundness_never_exceeds_closed_form(self, suite1000):
        for ch in suite1000[:100]:
            closed = optimal_beam(ch).rate
            for grid in ((64, 64), (128, 128)):
                _, rate = brute_force_gaussian(ch, grid)
                assert rate <= closed + 1e-12

    def test_grid_convergence_halves_gap(self, suite1000):
        # Doubling the resolution at least halves the worst observed gap,
        # down to the face-refinement floor of the evaluations (the
        # unit-rank optimum of a non-degraded channel is polished to
        # near machine precision at any base resolution).
        noise_floor = 2e-10
        worst = {}
        for grid in (8, 16, 32):
            worst[grid] = 0.0
            for ch in suite1000[:10]:
                closed = optimal_beam(ch).rate
                _, rate = brute_force_gaussian(ch, (grid, grid))
                worst[grid] = max(worst[grid], closed - rate)
        assert worst[16] <= max(0.5 * worst[8], noise_floor)
        assert worst[32] <= max(0.5 * worst[16], noise_floor)
        assert worst[32] <= 1e-9

    def test_grid_convergence_interior_optimum(self):
        # A degraded channel whose optimum is an interior full-rank mixture
        # exercises the power lattice itself; a 64x point budget must cut
        # the gap at least eightfold (it scales like the squared spacing,
        # up to lattice-alignment luck at any single resolution).
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        s_star = math.sqrt(18.0) - 4.0
        exact = 0.5 * math.log((1 + s_star) * (2 - s_star) / (1 + s_star / 4))
        _, coarse = brute_force_gaussian(ch, (64, 64))
        _, fine = brute_force_gaussian(ch, (64, 4096))
        assert exact - fine >= -1e-12
        assert exact - fine <= (exact - coarse) / 8.0

    def test_determinism_bit_for_bit(self):
        ch = WiretapChannel(((0.7, -0.3), (0.1, 1.4)), (1.2, 0.4), 1.0)
        s1, r1 = brute_force_gaussian(ch, (128, 128))
        s2, r2 = brute_force_gaussian(ch, (128, 128))
        assert r1 == r2
        assert s1.S == s2.S

    def test_rejects_tiny_grid(self, example_a):
        with pytest.raises(ValueError):
            brute_force_gaussian(example_a, (1, 64))


class TestBruteForceUpper:
    def test_example_a_at_tight_correlation(self, example_a):
        _, value = brute_force_upper(example_a, (0.5, 0.0), (256, 256))
        assert math.isclose(value, 0.5 * math.log(2.0), rel_tol=1e-9)

    def test_zero_correlation_is_looser(self, example_a):
        _, value = brute_force_upper(example_a, (0.0, 0.0), (256, 256))
        assert value >= 0.5 * math.log(2.0) + 1e-3

    def test_unit_rank_at_tight_correlation(self, suite1000):
        from secrecy221 import optimize_alpha

        for ch in suite1000[:20]:
            tc = optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            s_best, value = brute_force_upper(ch, tc.a_star, (256, 256))
            (l1, l2), _ = mk.sym_eig2(s_best.S)
            assert l2 <= 1e-3 * ch.P
            assert value <= optimal_beam(ch).rate + 1e-12

    def test_degenerate_correlation_rejected(self, example_a):
        for a in ((0.8, 0.6), (math.nan, 0.0)):
            with pytest.raises(NoiseDegenerate):
                brute_force_upper(example_a, a, (64, 64))
        # Outside the unit disk A(a) would be I or indefinite, not a bound.
        for a in ((2.0, 0.0), (0.0, 1.5), (math.nan, 0.0)):
            with pytest.raises(NoiseDegenerate):
                coupling_gain_matrix(example_a, a)


# From the smallest lattice (m = 1) to the certificate's 512^2 grid.
ENGINE_GRIDS = [(2, 2), (8, 3), (100, 256), (64, 4096), (256, 256), (512, 512)]


class TestBlockedGridEngine:
    @pytest.fixture
    def channels(self, example_a, suite1000):
        return [example_a, suite1000[0], suite1000[1]]

    @pytest.mark.parametrize("grid", ENGINE_GRIDS, ids=str)
    def test_gaussian_matches_dense_reference(self, channels, grid):
        for ch in channels:
            expected = dense_grid_max_ratio(ch.gram(), ch.g, ch.P, *grid)
            assert oracle._grid_max_ratio(ch.gram(), ch.g, ch.P, *grid) == expected
            s_best, rate = brute_force_gaussian(ch, grid)
            assert rate == 0.5 * math.log(expected[0])
            assert s_best == validate_covariance(covariance_from_param(expected[1]), ch.P)

    @pytest.mark.parametrize("grid", ENGINE_GRIDS, ids=str)
    def test_upper_matches_dense_reference_with_and_without_frame(self, channels, grid):
        for ch in channels:
            frame = oracle._grid_frame(ch.g, ch.P, *grid)
            for a in ((0.0, 0.0), (0.3, -0.6)):
                d = coupling_gain_matrix(ch, a)
                expected = dense_grid_max_ratio(d, ch.g, ch.P, *grid)
                args = (d, ch.g, ch.P, *grid)
                assert oracle._grid_max_ratio(*args) == expected
                assert oracle._grid_max_ratio(*args, frame) == expected
                alone = brute_force_upper(ch, a, grid)
                shared = brute_force_upper(ch, a, grid, frame)
                assert alone[1] == shared[1] == 0.5 * math.log(expected[0])
                s_best = validate_covariance(covariance_from_param(expected[1]), ch.P)
                assert alone[0] == shared[0] == s_best

    def test_ties_keep_the_first_grid_point(self):
        # D = 0 and g = 0 make every ratio 1: the first grid point must win,
        # as numpy's whole-grid argmax picks it.
        zero = ((0.0, 0.0), (0.0, 0.0))
        grid = (100, 256)
        expected = dense_grid_max_ratio(zero, (0.0, 0.0), 1.0, *grid)
        assert expected == (1.0, CovParam(0.0, 0.0, 0.0))
        assert oracle._grid_max_ratio(zero, (0.0, 0.0), 1.0, *grid) == expected

    def test_candidates_are_the_lattice_origin_and_full_power_points(self):
        # The frame's candidates are the dense lattice's origin and its
        # points (i, m - i), in lattice order, for every lattice side m.
        for npower in range(2, 1000):
            frame = oracle._grid_frame((0.3, -0.2), 2.0, 2, npower)
            p1, p2 = _dense_power_pairs(npower, 2.0)
            face = np.isclose(p1 + p2, 2.0, rtol=1e-9, atol=0.0)
            assert (p1[0], p2[0]) == (0.0, 0.0)
            assert np.array_equal(frame.cp1, np.concatenate(([0.0], p1[face])))
            assert np.array_equal(frame.cp2, np.concatenate(([0.0], p2[face])))
            assert np.array_equal(frame.cp12, frame.cp1 * frame.cp2)
            assert frame.cden.shape == (2, frame.cp1.shape[0])

    def test_zoom_starts_from_the_callers_incumbent(self, example_a):
        # The zoom does not re-evaluate psi0: an incumbent that no zoom
        # point beats comes back unchanged, and a beaten one gives way to a
        # face point at least as good as psi0.
        d = np.asarray(example_a.gram(), dtype=float)
        g = np.asarray(example_a.g, dtype=float)
        power, psi0, h0 = example_a.P, 0.3, math.pi / 8
        assert oracle._zoom_face(d, g, power, psi0, math.inf, h0) == (psi0, math.inf)

        def at(psi):
            return float(oracle._face_ratio(d, g, power, np.array([psi]))[0])

        psi, best = oracle._zoom_face(d, g, power, psi0, 0.0, h0)
        assert best >= at(psi0) * (1.0 - 1e-15)
        assert math.isclose(at(psi), best, rel_tol=1e-15)
        # Three brackets of width h0, h0 / 16 and h0 / 256, each centred on
        # the last one's best point.
        assert abs(psi - psi0) <= 0.5 * h0 * (1.0 + 1.0 / 16.0 + 1.0 / 256.0)

    def test_traced_memory_stays_block_sized(self, example_a):
        # The dense engine peaked at 6.26 MB (one 512^2 grid) and 1.71 MB
        # (min_over_a at 256^2), the blocked one with a grid-sized denominator
        # at 2.36 and 0.82 MB, the row-pruned one at 0.60 and 0.28 MB; the
        # candidates alone peak at 0.58 and 0.27 MB.  The caps add 25%.
        beam = optimal_beam(example_a)
        brute_force_gaussian(example_a, (8, 8))  # one-time lazy set-up untraced
        peaks = []
        for run in (
            lambda: brute_force_gaussian(example_a, (512, 512)),
            lambda: min_over_a(example_a, beam, 32, 0, (256, 256)),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.73e6
        assert peaks[1] <= 0.34e6


def _dense_ratio(d, g, power, param):
    """The ratio at one covariance parameter, by the dense engine's formula."""
    det_d = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
    phi = np.array([param.phi])
    d1, d2, e1, e2 = _dense_direction_profile(d, np.asarray(g, dtype=float), phi)
    p1, p2 = param.p1, param.p2
    num = 1.0 + d1 * p1 + d2 * p2 + det_d * (p1 * p2)
    return float((num / (1.0 + e1 * p1 + e2 * p2))[0])


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


class TestPruningIsExact:
    """The candidates hold the lattice maximum: the engine's value is the
    dense engine's up to the rounding of one grid point, and its CovParam
    re-evaluates to that value."""

    @staticmethod
    def check_against_dense(d, g, power, nphi, npower):
        args = (d, g, power, nphi, npower)
        dense, _ = dense_grid_max_ratio(*args)
        value, param = oracle._grid_max_ratio(*args)
        frame = oracle._grid_frame(g, power, nphi, npower)
        assert oracle._grid_max_ratio(*args, frame) == (value, param)
        dm = np.asarray(d, dtype=float)
        det_d = abs(float(dm[0, 0] * dm[1, 1] - dm[0, 1] * dm[1, 0]))
        scale = 1.0 + 2.0 * float(np.linalg.norm(dm)) * power + det_d * power * power
        assert 0.0 <= dense - value <= 1e-9 * scale
        # A random-stage point groups its cross term as (det D p1) p2, so
        # its ratio may differ from the dense formula's in the last bit.
        assert math.isclose(_dense_ratio(dm, g, power, param), value, rel_tol=1e-15)

    # Every shape of D the candidates must survive: a rank-one D, whose
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
        self.check_against_dense(d, g, 10.0**log_power, nphi, npower)

    def test_rounding_slack_keeps_the_argmax_row(self):
        # D = g g^T at large P makes every ratio 1 up to rounding: the dense
        # argmax lies inside a row whose every candidate rounds below the
        # grid's best candidate, so only the bound's slack holds it.
        g = (1.028825305674486, -0.7499319367515453)
        self.check_against_dense(mk.outer2(g, g), g, 46489514804.438446, 8, 256)


class TestKKTCheck:
    def test_passes_at_optimum(self, example_a):
        rep = kkt_check(example_a.gram(), example_a.g, 1.0, ((0.0, 0.0), (0.0, 1.0)))
        assert rep.passes
        assert rep.multiplier >= 0.0
        assert rep.psd_margin >= 0.0

    def test_fails_along_eavesdropper(self, example_a):
        rep = kkt_check(example_a.gram(), example_a.g, 1.0, ((1.0, 0.0), (0.0, 0.0)))
        assert not rep.passes
        assert rep.multiplier < 0.0

    def test_not_unit_rank(self, example_a):
        with pytest.raises(NotUnitRank):
            kkt_check(example_a.gram(), example_a.g, 1.0, ((0.5, 0.0), (0.0, 0.5)))

    def test_random_suite_pass_and_perturbed_fail(self, suite1000):
        for ch in suite1000[:100]:
            beam = optimal_beam(ch)
            rep = kkt_check(ch.gram(), ch.g, ch.P, beam_covariance(beam.q_a, ch.P))
            assert rep.passes
            rot = 0.1
            q = (
                beam.q_a[0] * math.cos(rot) - beam.q_a[1] * math.sin(rot),
                beam.q_a[0] * math.sin(rot) + beam.q_a[1] * math.cos(rot),
            )
            rep_pert = kkt_check(ch.gram(), ch.g, ch.P, beam_covariance(q, ch.P))
            assert not rep_pert.passes


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


class TestMinOverA:
    def test_example_a(self, example_a):
        a_best, value, _, _ = min_over_a(example_a, optimal_beam(example_a), 200, seed=3)
        lower = 0.5 * math.log(2.0)
        assert value >= lower - 1e-3
        assert value <= lower + 0.05
        # minimizer approaches the tight correlation (1/2, 0)
        assert mk.norm2(mk.sub2(a_best, (0.5, 0.0))) <= 0.25

    def test_zero_sample_is_valid_bound(self, example_a):
        _, value = brute_force_upper(example_a, (0.0, 0.0), (128, 128))
        assert value >= 0.5 * math.log(2.0) - 1e-9

    def test_dominance_on_random_channels(self, suite1000):
        for ch in suite1000[:3]:
            # Every sample upper-bounds the achievable rate, and the
            # optimized correlation is never beaten by more than the tolerance.
            _, min_value, _, star_value = min_over_a(
                ch, optimal_beam(ch), 25, seed=8, grid=(256, 128)
            )
            lower = optimal_beam(ch).rate
            assert min_value >= lower - EPS_GRID * max(1.0, abs(lower))
            assert star_value <= min_value + EPS_GRID * max(1.0, abs(min_value))

    def test_returns_optimized_correlation_and_its_grid_value(self, suite1000):
        from secrecy221 import optimize_alpha

        grid = (128, 64)
        for ch in suite1000[:2]:
            a_best, value, tc, star_value = min_over_a(
                ch, optimal_beam(ch), 4, seed=5, grid=grid
            )
            assert tc == optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            s_star, grid_value = brute_force_upper(ch, tc.a_star, grid)
            assert star_value == grid_value
            assert value == brute_force_upper(ch, a_best, grid)[1]
            assert mk.trace2(s_star.S) <= ch.P + EPS_TRACE * max(1.0, ch.P)

    def test_requires_general(self, monkeypatch):
        # The precondition fails before any grid is searched.
        calls = []
        real = oracle.brute_force_upper

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "brute_force_upper", counted)
        degraded = WiretapChannel(I2, (0.5, 0.0), 1.0)
        with pytest.raises(PreconditionFailed):
            min_over_a(degraded, optimal_beam(degraded), 10, seed=0)
        assert calls == []


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
        param = CovParam(0.3, 0.6, 0.2)
        s = covariance_from_param(param)
        c, sn = math.cos(0.3), math.sin(0.3)
        q1 = (c, sn)
        q2 = (-sn, c)
        manual = mk.matadd2(
            mk.matscale2(0.6, mk.outer2(q1, q1)), mk.matscale2(0.2, mk.outer2(q2, q2))
        )
        assert max(
            abs(s[i][j] - manual[i][j]) for i in range(2) for j in range(2)
        ) <= 1e-15
        assert np.isclose(mk.trace2(s), 0.8)
