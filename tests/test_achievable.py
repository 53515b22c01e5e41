"""Lower-bound tests: optimal beam, positivity witness, and orderings."""

import math
import random

import pytest

from conftest import null_beam_rate
from secrecy221 import (
    ChannelKind,
    WiretapChannel,
    beam_rate,
    brute_force_gaussian,
    classify,
    optimal_beam,
)
from secrecy221 import matkit as mk
from secrecy221.errors import RankDeficient

I2 = ((1.0, 0.0), (0.0, 1.0))


def lambda_exceeds_one(ch: WiretapChannel) -> bool:
    """lambda_1 > 1 + gap on a General channel, with gap half the excess
    (1/2) expm1(2 * null-beam rate) = P ||H g_perp||^2 / 2 that the positive
    null-beam rate guarantees."""
    gap = 0.5 * math.expm1(2.0 * null_beam_rate(ch))
    return optimal_beam(ch).lambda1 > 1.0 + gap


class TestOptimalBeam:
    def test_example_a(self, example_a):
        sol = optimal_beam(example_a)
        assert sol.q_a == (0.0, 1.0)
        assert sol.lambda1 == 2.0
        assert math.isclose(sol.rate, 0.5 * math.log(2.0), rel_tol=1e-14)
        assert not sol.degenerate

    def test_diagonal_example(self, diag_example):
        sol = optimal_beam(diag_example)
        assert sol.q_a == (0.0, 1.0)
        assert sol.lambda1 == 5.0
        assert math.isclose(sol.rate, 0.5 * math.log(5.0), rel_tol=1e-14)

    def test_grid_search_oracle(self):
        ch = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        sol = optimal_beam(ch)
        _, grid_rate = brute_force_gaussian(ch, (512, 512))
        assert grid_rate <= sol.rate + 1e-12
        assert grid_rate >= sol.rate - 1e-3

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            optimal_beam(WiretapChannel(((1.0, 1.0), (1.0, 1.0)), (1.0, 0.0), 1.0))

    def test_maximality_over_random_beams(self, suite1000):
        rng = random.Random(9)
        for ch in suite1000[:5]:
            sol = optimal_beam(ch)
            for _ in range(1000):
                ang = rng.uniform(0, 2 * math.pi)
                q = (math.cos(ang), math.sin(ang))
                assert beam_rate(ch, q) <= sol.rate + 1e-12

    def test_rayleigh_quotient_form(self, suite1000):
        for ch in suite1000[:200]:
            sol = optimal_beam(ch)
            a = mk.matadd2(I2, mk.matscale2(ch.P, ch.gram()))
            b = mk.matadd2(I2, mk.matscale2(ch.P, mk.outer2(ch.g, ch.g)))
            quotient = mk.quad2(a, sol.q_a) / mk.quad2(b, sol.q_a)
            assert math.isclose(quotient, sol.lambda1, rel_tol=1e-10)

    def test_monotone_in_power(self, suite1000):
        for ch in suite1000[:50]:
            rates = [
                optimal_beam(ch.with_power(p)).rate
                for p in (0.125, 0.5, 2.0, 8.0, 32.0)
            ]
            for lo, hi in zip(rates, rates[1:]):
                assert hi >= lo - 1e-12

    def test_shrinking_eavesdropper_never_hurts(self, suite1000):
        for ch in suite1000[:50]:
            lam_full = optimal_beam(ch).lambda1
            for c in (0.75, 0.5, 0.25):
                shrunk = WiretapChannel(ch.H, mk.scale2(c, ch.g), ch.P)
                assert optimal_beam(shrunk).lambda1 >= lam_full - 1e-12

    def test_no_eavesdropper_flag(self):
        ch = WiretapChannel(((1.0, 0.2), (0.0, 2.0)), (0.0, 0.0), 1.0)
        sol = optimal_beam(ch)
        assert sol.no_eavesdropper
        # beam is the strongest main-channel direction
        (l1, _), (v1, _) = mk.sym_eig2(ch.gram())
        assert math.isclose(abs(mk.dot2(sol.q_a, v1)), 1.0, abs_tol=1e-12)
        assert math.isclose(sol.rate, 0.5 * math.log(1.0 + ch.P * l1), rel_tol=1e-12)


class TestNullBeamRate:
    def test_example_a(self, example_a):
        assert math.isclose(
            null_beam_rate(example_a), 0.5 * math.log(2.0), rel_tol=1e-14
        )

    def test_diagonal_example(self, diag_example):
        assert math.isclose(
            null_beam_rate(diag_example), 0.5 * math.log(5.0), rel_tol=1e-14
        )

    def test_positive_and_dominated(self, suite1000):
        for ch in suite1000[:300]:
            nb = null_beam_rate(ch)
            sol = optimal_beam(ch)
            assert nb > 0.0
            assert nb <= sol.rate + 1e-12


class TestLambdaExceedsOne:
    def test_examples(self, example_a, diag_example):
        for ch in (example_a, diag_example):
            assert classify(ch).kind is ChannelKind.GENERAL
            assert lambda_exceeds_one(ch)

    def test_random_suite(self, suite1000):
        for ch in suite1000[:200]:
            assert lambda_exceeds_one(ch)
            assert classify(ch).kind is ChannelKind.GENERAL
