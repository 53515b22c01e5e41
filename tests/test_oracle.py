"""Oracle tests: grid soundness and convergence, KKT verdicts, root-sign
verification, correlation sampling, and determinism."""

import math
import random

import numpy as np
import pytest

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
)
from secrecy221 import matkit as mk
from secrecy221 import oracle
from secrecy221.errors import NoiseDegenerate, NotUnitRank, PreconditionFailed
from secrecy221.oracle import CovParam, covariance_from_param
from secrecy221.tolerances import EPS_GRID, EPS_TRACE

I2 = ((1.0, 0.0), (0.0, 1.0))


class TestBruteForceGaussian:
    def test_example_a_finds_known_optimum(self, example_a):
        s_best, rate = brute_force_gaussian(example_a, (256, 256), seed=7)
        assert math.isclose(rate, 0.5 * math.log(2.0), rel_tol=1e-9)
        (l1, l2), (v1, _) = mk.sym_eig2(s_best.S)
        assert l2 <= 1e-3  # unit rank
        assert abs(mk.dot2(v1, (0.0, 1.0))) >= 1.0 - 1e-6  # beam near (0, 1)

    def test_degraded_example_uses_full_power(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        s_best, rate = brute_force_gaussian(ch, (256, 256), seed=7)
        assert rate >= optimal_beam(ch).rate - 1e-12
        assert mk.trace2(s_best.S) >= ch.P - 0.05

    def test_soundness_never_exceeds_closed_form(self, suite1000):
        for ch in suite1000[:100]:
            closed = optimal_beam(ch).rate
            for grid in ((64, 64), (128, 128)):
                _, rate = brute_force_gaussian(ch, grid, seed=3)
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
                _, rate = brute_force_gaussian(ch, (grid, grid), seed=5)
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
        _, coarse = brute_force_gaussian(ch, (64, 64), seed=5)
        _, fine = brute_force_gaussian(ch, (64, 4096), seed=5)
        assert exact - fine >= -1e-12
        assert exact - fine <= (exact - coarse) / 8.0

    def test_determinism_bit_for_bit(self):
        ch = WiretapChannel(((0.7, -0.3), (0.1, 1.4)), (1.2, 0.4), 1.0)
        s1, r1 = brute_force_gaussian(ch, (128, 128), seed=9)
        s2, r2 = brute_force_gaussian(ch, (128, 128), seed=9)
        assert r1 == r2
        assert s1.S == s2.S

    def test_rejects_tiny_grid(self, example_a):
        with pytest.raises(ValueError):
            brute_force_gaussian(example_a, (1, 64), seed=0)


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
            _, _, tc, star_value = min_over_a(ch, optimal_beam(ch), 4, seed=5, grid=grid)
            assert tc == optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            s_star, grid_value = brute_force_upper(ch, tc.a_star, grid)
            assert star_value == grid_value
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
