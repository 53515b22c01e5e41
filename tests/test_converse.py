"""Upper-bound tests: the correlation family, its optimizer, the bound
evaluations, and the capacity certificate."""

import json
import math
import random

import mpmath
import pytest

from conftest import (
    disk_max_reference,
    gaussian_rate_reference,
    genie_bound_reference,
    rotation,
    upper_value as solved_upper_value,
)
from secrecy221 import (
    ChannelKind,
    TightCorrelation,
    WiretapChannel,
    a_zero_witness,
    brute_force_gaussian,
    capacity_certificate,
    coupling_gain_matrix,
    optimal_beam,
    optimize_alpha,
    sample_general_channels,
)
from secrecy221 import matkit as mk
from secrecy221 import converse, oracle
from secrecy221.cli import main
from secrecy221.converse import (
    RESIDUAL_TOLERANCES,
    _certificate_verdict,
    _upper_bound_max_detail,
    _upper_value_detail,
)
from secrecy221.errors import (
    DegenerateDirection,
    InvariantViolated,
    NoiseDegenerate,
    PreconditionFailed,
    SingularMatrix,
)
from secrecy221.tolerances import EPS_CERT, EPS_GRID, EPS_ID

I2 = ((1.0, 0.0), (0.0, 1.0))


def theta_reciprocal_terms(ch, q_perp, inv_alpha):
    """The constant, linear and quadratic terms of 1/theta at x = 1/alpha:

        1/theta = -q^T W q - 2 (g^T W q) x - (g^T W g - 1) x^2,

    with W = (H^T H)^{-1}, a concave quadratic on non-degraded channels."""
    w = mk.inv2(ch.gram())
    return (
        -mk.quad2(w, q_perp),
        -2.0 * mk.dot2(ch.g, mk.matvec2(w, q_perp)) * inv_alpha,
        -(mk.quad2(w, ch.g) - 1.0) * inv_alpha * inv_alpha,
    )


def theta_of_alpha(ch, q_perp, alpha):
    """theta(alpha) = alpha^2 / (1 - ||a||^2) for a = H^{-T}(alpha q_perp + g),
    asserting that its reciprocal equals the quadratic in 1/alpha."""
    a = mk.matvec2(mk.inv2(mk.transpose2(ch.H)), mk.add2(mk.scale2(alpha, q_perp), ch.g))
    s = 1.0 - mk.dot2(a, a)
    terms = theta_reciprocal_terms(ch, q_perp, 1.0 / alpha)
    # Scaled by the polynomial's term magnitudes: on badly conditioned
    # channels the entries of (H^T H)^{-1} dominate the achievable accuracy.
    scale = max(1.0, sum(abs(t) for t in terms))
    assert abs(s / (alpha * alpha) - sum(terms)) <= EPS_ID * scale
    return alpha * alpha / s


def upper_value(ch, q, a):
    """U(P q q^T, a), its two evaluation routes within EPS_ID."""
    value, residual = _upper_value_detail(ch, q, a)
    assert residual <= EPS_ID
    return value


def random_beam(rng):
    ang = rng.uniform(0, 2 * math.pi)
    return (math.cos(ang), math.sin(ang))


def random_correlation(rng, r_max2=0.96):
    r = math.sqrt(rng.uniform(0, r_max2))
    phi = rng.uniform(0, 2 * math.pi)
    return (r * math.cos(phi), r * math.sin(phi))


class TestThetaOfAlpha:
    def test_example_a(self, example_a):
        theta = theta_of_alpha(example_a, (1.0, 0.0), -1.5)
        assert math.isclose(theta, 3.0, rel_tol=1e-12)

    def test_diagonal_example(self, diag_example):
        theta = theta_of_alpha(diag_example, (1.0, 0.0), -1.595)
        assert math.isclose(theta, 3.19, rel_tol=1e-12)

    def test_dual_route_agreement_random(self, suite1000):
        rng = random.Random(55)
        for ch in suite1000[:100]:
            beam = optimal_beam(ch)
            q_perp = mk.orth_perp(beam.q_a)
            for _ in range(10):
                alpha = rng.gauss(0, 2)
                if abs(alpha) < 1e-3:
                    continue
                theta_of_alpha(ch, q_perp, alpha)  # asserts the two routes agree


class TestOptimizeAlpha:
    def test_example_a(self, example_a):
        tc = optimize_alpha(example_a, (1.0, 0.0))
        assert math.isclose(tc.alpha_star, -1.5, rel_tol=1e-12)
        assert math.isclose(tc.theta_star, 3.0, rel_tol=1e-12)
        assert math.isclose(tc.a_star[0], 0.5, rel_tol=1e-12)
        assert abs(tc.a_star[1]) <= 1e-15
        assert math.isclose(tc.A_star[0][0], 4.0, rel_tol=1e-12)
        assert math.isclose(tc.A_star[1][1], 1.0, rel_tol=1e-12)

    def test_diagonal_example(self, diag_example):
        tc = optimize_alpha(diag_example, (1.0, 0.0))
        assert math.isclose(tc.alpha_star, -1.595, rel_tol=1e-12)
        assert math.isclose(tc.theta_star, 3.19, rel_tol=1e-12)
        assert math.isclose(tc.a_star[0], 0.45, rel_tol=1e-12)
        assert math.isclose(tc.A_star[0][0], 4.0, rel_tol=1e-12)
        assert math.isclose(tc.A_star[1][1], 4.0, rel_tol=1e-12)

    def test_sign_flip_invariance(self, suite1000):
        for ch in suite1000[:100]:
            q_perp = mk.orth_perp(optimal_beam(ch).q_a)
            tc_pos = optimize_alpha(ch, q_perp)
            tc_neg = optimize_alpha(ch, mk.scale2(-1.0, q_perp))
            assert math.isclose(tc_pos.alpha_star, -tc_neg.alpha_star, rel_tol=1e-12)
            assert math.isclose(tc_pos.theta_star, tc_neg.theta_star, rel_tol=1e-12)
            assert math.isclose(tc_pos.a_star[0], tc_neg.a_star[0], abs_tol=1e-12)
            assert math.isclose(tc_pos.a_star[1], tc_neg.a_star[1], abs_tol=1e-12)

    def test_identities_on_random_suite(self, suite1000):
        for ch in suite1000:
            tc = optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            assert tc.theta_star > 0.0
            assert mk.norm2(tc.a_star) < 1.0
            coupling = mk.quad2(mk.inv2(tc.A_star), ch.g)
            assert abs(coupling - 1.0) <= 1e-9

    def test_degenerate_direction(self, example_a):
        # Any q_perp orthogonal to (H^T H)^{-1} g makes 1/alpha* vanish.
        w_g = mk.matvec2(mk.inv2(example_a.gram()), example_a.g)
        q_perp = mk.orth_perp(mk.unit2(w_g))
        with pytest.raises(DegenerateDirection):
            optimize_alpha(example_a, q_perp)

    def test_requires_general(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        with pytest.raises(PreconditionFailed):
            optimize_alpha(ch, (1.0, 0.0))
        # Rank deficiency surfaces where (H^T H)^{-1} is formed.
        rank_one = WiretapChannel(((1.0, 2.0), (2.0, 4.0)), (1.0, 0.0), 1.0)
        with pytest.raises(SingularMatrix):
            optimize_alpha(rank_one, (1.0, 0.0))

    def test_theta_star_is_admissible_minimum(self, suite1000):
        # The stationary point maximizes 1/theta, so theta* is the smallest
        # positive theta over the admissible family.
        rng = random.Random(99)
        for ch in suite1000[:30]:
            q_perp = mk.orth_perp(optimal_beam(ch).q_a)
            tc = optimize_alpha(ch, q_perp)
            recip_star = sum(theta_reciprocal_terms(ch, q_perp, 1.0 / tc.alpha_star))
            for _ in range(1000):
                alpha = rng.gauss(0, 3)
                if abs(alpha) < 1e-6:
                    continue
                recip = sum(theta_reciprocal_terms(ch, q_perp, 1.0 / alpha))
                assert recip <= recip_star * (1.0 + 1e-9) + 1e-12
                if recip > 0.0:  # admissible: ||a|| < 1
                    theta = 1.0 / recip
                    assert theta >= tc.theta_star * (1.0 - 1e-9)


class TestAZeroWitness:
    def test_orthogonal_beam_gives_zero(self, example_a, diag_example):
        for ch in (example_a, diag_example):
            a0, _ = a_zero_witness(ch, optimal_beam(ch).q_a)
            assert mk.norm2(a0) <= 1e-15

    def test_random_suite(self, suite1000):
        for ch in suite1000[:300]:
            beam = optimal_beam(ch)
            a0, _ = a_zero_witness(ch, beam.q_a)
            assert mk.norm2(a0) < 1.0
            expected = abs(mk.dot2(ch.g, beam.q_a)) / mk.norm2(
                mk.matvec2(ch.H, beam.q_a)
            )
            assert math.isclose(mk.norm2(a0), expected, rel_tol=1e-10, abs_tol=1e-14)

    def test_residual_is_the_certificates_and_unit_norm_fails(self, suite1000):
        for ch in suite1000[:20]:
            cert = capacity_certificate(ch)
            _, orth = a_zero_witness(ch, cert.beam.q_a)
            assert orth == cert.residuals["a_zero_orth"]
        # ||a_0|| < 1 is strict: the table fails exactly 1.0 (and NaN) and
        # passes the largest double below 1.
        residuals = dict(capacity_certificate(suite1000[0]).residuals)
        for norm, verdict in [
            (math.nextafter(1.0, 0.0), "Tight"), (1.0, "NotTight"), (math.nan, "NotTight")
        ]:
            residuals["a_zero_norm"] = norm
            assert _certificate_verdict(residuals, EPS_CERT) == verdict


class TestUpperValue:
    def test_zero_covariance(self, example_a):
        # q = 0 gives S = 0.
        for a in ((0.0, 0.0), (0.3, -0.2), (0.7, 0.1)):
            assert upper_value(example_a, (0.0, 0.0), a) == 0.0

    def test_zero_correlation_matches_augmented_gain(self, suite1000):
        # With a = 0 the bound's gain matrix is H^T H + g g^T.
        rng = random.Random(3)
        for ch in suite1000[:50]:
            q = random_beam(rng)
            got = upper_value(ch, q, (0.0, 0.0))
            s = mk.matscale2(ch.P, mk.outer2(q, q))
            gain = mk.matadd2(ch.gram(), mk.outer2(ch.g, ch.g))
            num = mk.det2(mk.matadd2(I2, mk.matmul2(gain, s)))
            den = 1.0 + mk.quad2(s, ch.g)
            assert math.isclose(got, 0.5 * math.log(num / den), rel_tol=1e-12)

    def test_example_a_at_tight_point(self, example_a):
        value = upper_value(example_a, (0.0, 1.0), (0.5, 0.0))
        assert math.isclose(value, 0.5 * math.log(2.0), rel_tol=1e-13)

    def test_two_route_agreement_random(self, suite1000):
        rng = random.Random(4)
        for ch in suite1000[:100]:
            for _ in range(10):
                # upper_value asserts that the two routes agree.
                upper_value(ch, random_beam(rng), random_correlation(rng))

    @pytest.mark.parametrize("power", [1e-8, 1.0, 1e8, 1e16, 1e24])
    def test_route_one_matches_the_literal_definition(self, suite1000, power):
        # Route 1 against det(I_3 + N^{-1} Hbar S Hbar^T) with the literal
        # inverse N^{-1}, in 50 digits; where a determinant would cancel in
        # floats, the rank-one form keeps full accuracy.
        rng = random.Random(29)
        for ch in suite1000[:20]:
            ch = ch.with_power(power)
            for _ in range(5):
                q, a = random_beam(rng), random_correlation(rng, 0.98)
                value, _ = _upper_value_detail(ch, q, a)
                ref = genie_bound_reference(ch, q, a)
                assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_degenerate_noise_rejected(self, example_a):
        with pytest.raises(NoiseDegenerate):
            upper_value(example_a, (0.0, 1.0), (1.0, 0.0))

    def test_nonfinite_correlation_rejected(self, example_a):
        with pytest.raises(NoiseDegenerate):
            upper_value(example_a, (0.0, 1.0), (float("nan"), 0.0))

    def test_route_two_below_zero_is_refused(self, monkeypatch, example_a):
        # A float quadratic form of the PSD A(a) is not provably >= 0, so
        # route 2 keeps its guard; route 1 and the denominator are >= 1.
        negative = ((-2.0, 0.0), (0.0, -2.0))
        monkeypatch.setattr(converse, "coupling_gain_matrix", lambda ch, a: negative)
        with pytest.raises(InvariantViolated, match="^genie bound: route_2 = -1.0 is not"):
            _upper_value_detail(example_a, (0.0, 1.0), (0.5, 0.0))

    def test_off_disk_correlation_is_gated(self, example_a):
        # coupling_gain_matrix is the one unit-disk gate; route 1 has none.
        for a in ((1.0, 0.0), (0.8, 0.7)):
            with pytest.raises(NoiseDegenerate):
                coupling_gain_matrix(example_a, a)
            with pytest.raises(NoiseDegenerate):
                _upper_value_detail(example_a, (0.0, 1.0), a)


class TestUpperBoundMax:
    def test_example_a(self, example_a):
        tc = optimize_alpha(example_a, (1.0, 0.0))
        value, eigs, _ = _upper_bound_max_detail(example_a, tc)
        assert math.isclose(value, 0.5 * math.log(2.0), rel_tol=1e-13)
        assert math.isclose(eigs[0], 2.0, rel_tol=1e-13)
        assert math.isclose(eigs[1], 1.0, abs_tol=1e-13)

    def test_diagonal_example(self, diag_example):
        tc = optimize_alpha(diag_example, (1.0, 0.0))
        value, eigs, _ = _upper_bound_max_detail(diag_example, tc)
        assert math.isclose(value, 0.5 * math.log(5.0), rel_tol=1e-13)
        assert math.isclose(eigs[0], 5.0, rel_tol=1e-13)
        assert math.isclose(eigs[1], 1.0, abs_tol=1e-13)

    def test_spectrum_on_random_suite(self, suite1000):
        for ch in suite1000[:300]:
            beam = optimal_beam(ch)
            tc = optimize_alpha(ch, mk.orth_perp(beam.q_a))
            _, eigs, _ = _upper_bound_max_detail(ch, tc)
            assert math.isclose(eigs[0], beam.lambda1, rel_tol=1e-10)
            assert abs(eigs[1] - 1.0) <= 1e-8

    def test_wrong_theta_is_caught(self, example_a):
        tc = optimize_alpha(example_a, (1.0, 0.0))
        broken = TightCorrelation(
            alpha_star=tc.alpha_star,
            theta_star=2.0 * tc.theta_star,
            a_star=tc.a_star,
            A_star=tc.A_star,
            q_perp=tc.q_perp,
        )
        _, _, resid = _upper_bound_max_detail(example_a, broken)
        assert resid["eigen_one_abs"] > RESIDUAL_TOLERANCES["eigen_one_abs"]


class TestCapacityCertificate:
    def test_example_a(self, example_a):
        cert = capacity_certificate(example_a)
        assert cert.verdict == "Tight"
        assert math.isclose(cert.capacity_nats, 0.5 * math.log(2.0), rel_tol=1e-14)
        assert math.isclose(cert.capacity_bits, 0.5, rel_tol=1e-14)

    def test_residual_names_and_tolerances(self, example_a):
        cert = capacity_certificate(example_a)
        for name in RESIDUAL_TOLERANCES:
            assert name in cert.residuals

    def test_spec_cross_checked_instance(self):
        # Non-trivial instance confirmed by two independent oracles: the
        # solved covariance search and the exact bracket at a*.
        ch = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        cert = capacity_certificate(ch)
        assert cert.verdict == "Tight"
        _, grid_rate = brute_force_gaussian(ch)
        assert abs(cert.lower - grid_rate) <= 1e-3
        rho = oracle._beam_excess(ch, cert.beam.q_a)
        assert oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))
        assert not oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 - EPS_GRID))

    def test_blown_identity_is_nottight(self, monkeypatch, tmp_path, capsys):
        # A wrong theta* blows the {lambda_1, 1} spectrum identity: the
        # residual table, not a raise, must turn that into NotTight.
        real = converse.optimize_alpha

        def doubled(ch, q_perp):
            tc = real(ch, q_perp)
            return tc._replace(theta_star=2.0 * tc.theta_star)

        monkeypatch.setattr(converse, "optimize_alpha", doubled)
        ch = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        cert = capacity_certificate(ch)
        assert cert.verdict == "NotTight"
        assert cert.upper is not None
        assert "tight_path_error" not in cert.flags
        assert cert.residuals["eigen_one_abs"] > RESIDUAL_TOLERANCES["eigen_one_abs"]
        path = tmp_path / "channel.json"
        path.write_text('{"H": [[1.0, 0.5], [0.2, 1.2]], "g": [1.1, 0.9], "P": 2.0}')
        assert main(["capacity", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "NotTight"

    @staticmethod
    def _perturb_theta(monkeypatch):
        real = converse.optimize_alpha

        def perturbed(ch, q_perp):
            tc = real(ch, q_perp)
            theta = tc.theta_star * (1.0 + 1e-7)
            rank_one = mk.matscale2(theta, mk.outer2(q_perp, q_perp))
            a_mat = mk.matadd2(ch.gram(), rank_one)
            return tc._replace(theta_star=theta, A_star=a_mat)

        monkeypatch.setattr(converse, "optimize_alpha", perturbed)

    @staticmethod
    def _perturb_gain(monkeypatch):
        # All of A(a), not one entry: a change d in entry (i, j) reaches
        # route 2, 1 + P q^T A q, only through d q_i q_j, which vanishes
        # for beams near an axis (a 1e-6 change to any one entry leaves 1 to
        # 4 of these 200 channels within the gate).
        real = converse.coupling_gain_matrix

        def perturbed(ch, a):
            return mk.matscale2(1.0 + 1e-6, real(ch, a))

        monkeypatch.setattr(converse, "coupling_gain_matrix", perturbed)

    @staticmethod
    def _perturb_beam(monkeypatch):
        # The solved beam rotated 1e-4 rad, lambda_1 and the value kept: the
        # printed beam no longer reaches (1/2) log lambda_1.  The direction
        # error enters its rate squared, so only an exact rate sees it on
        # every channel.
        real = converse.optimal_beam
        rot = rotation(1e-4)

        def perturbed(ch):
            beam = real(ch)
            return beam._replace(q_a=mk.matvec2(rot, beam.q_a))

        monkeypatch.setattr(converse, "optimal_beam", perturbed)

    @pytest.mark.parametrize(
        "perturb,judged_by,only",
        [
            ("_perturb_theta", "unit_coupling", False),
            ("_perturb_gain", "three_path_u_rel", True),
            ("_perturb_beam", "sylvester_rel", False),
        ],
        ids=["theta_star", "coupling_gain", "beam"],
    )
    def test_stage_error_is_judged_by_the_table(
        self, monkeypatch, suite1000, perturb, judged_by, only
    ):
        # theta*, A(a) (route 2 of the genie bound) and the beam's direction
        # are not re-checked by the stages that produce them; the residual
        # table alone must turn their errors into NotTight.
        getattr(self, perturb)(monkeypatch)
        gates = {**RESIDUAL_TOLERANCES, "bound_gap_rel": EPS_CERT}
        for ch in suite1000[:200]:
            cert = capacity_certificate(ch)
            assert cert.verdict == "NotTight"
            failing = {n for n, tol in gates.items() if not cert.residuals[n] <= tol}
            assert judged_by in failing
            if only:
                assert failing == {judged_by}

    @pytest.mark.parametrize("power", [1e5, 1e8, 1e9, 1e16, 1e19, 1e21, 1e22])
    def test_every_tight_verdict_is_bracket_certified(self, power):
        # Where the float cross-checks move verdicts, a Tight certificate
        # must also pass the exact bracket: the genie bound at a* stays at
        # most the beam's exact excess widened by EPS_GRID.
        channels, _ = sample_general_channels(0, 100)
        tight = 0
        for ch in (c.with_power(power) for c in channels):
            cert = capacity_certificate(ch)
            if cert.verdict == "Tight":
                tight += 1
                rho = oracle._beam_excess(ch, cert.beam.q_a)
                assert oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))
        assert tight > 0

    def test_tight_verdicts_at_large_power_are_exact_at_their_own_scale(self):
        # The verdict's own tolerance, EPS_CERT max(1, |rate|), bounds a Tight
        # value exactly on both sides: the beam's exact rate reaches it, and
        # the genie bound at a* stays below it.  (The EPS_GRID bracket above
        # is ~50x stricter than that at these powers.)
        channels, _ = sample_general_channels(0, 100)
        tight = 0
        for ch in (c.with_power(p) for p in (1e23, 1e24, 1e25, 1e26, 1e27) for c in channels):
            try:
                cert = capacity_certificate(ch)
            except InvariantViolated:  # optimal_beam's own checks refuse
                continue
            if cert.verdict == "Tight":
                tight += 1
                rate = cert.capacity_nats
                tol = EPS_CERT * max(1.0, abs(rate))
                assert 0.5 * math.log1p(oracle._beam_excess(ch, cert.beam.q_a)) >= rate - tol
                rho_hi = math.expm1(2.0 * (rate + tol))
                assert oracle._bound_at_most(ch, cert.correlation.a_star, rho_hi)
        assert tight > 0

    def test_classify_runs_once(self, monkeypatch, capsys, tmp_path):
        # classify runs once per certificate and per oracle report, and
        # optimal_beam once per oracle report.
        from secrecy221 import achievable, channel, cli, oracle

        calls = []
        beams = []

        def counted(ch):
            calls.append(ch)
            return channel_classify(ch)

        def counted_beam(ch):
            beams.append(ch)
            return achievable_optimal_beam(ch)

        channel_classify = channel.classify
        achievable_optimal_beam = achievable.optimal_beam
        for module in (channel, converse, cli, oracle):
            monkeypatch.setattr(module, "classify", counted)
        for module in (achievable, converse, oracle):  # any module holding a reference
            monkeypatch.setattr(module, "optimal_beam", counted_beam, raising=False)
        capacity_certificate(WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0))
        assert len(calls) == 1
        path = tmp_path / "channel.json"
        path.write_text('{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}')
        beams.clear()
        assert main(["oracle", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) == 2
        assert len(beams) == 1

    def test_degraded_inapplicable(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.DEGRADED
        assert cert.verdict == "Inapplicable"
        assert cert.flags["degraded_formula"] == "solved"
        assert cert.flags["grid"] == [512, 512]
        assert "seed" not in cert.flags
        # No beam direction is computed; the value is the full covariance
        # search, at least the best beam's (1/2) log lambda_1, and here it is
        # the interior optimum diag(s*, 1 - s*) exactly.
        assert cert.beam is None and "no_eavesdropper" not in cert.flags
        assert cert.capacity_nats >= 0.5 * math.log(cert.lambda1)
        s_star = math.sqrt(18.0) - 4.0
        exact = 0.5 * math.log((1 + s_star) * (2 - s_star) / (1 + s_star / 4))
        assert math.isclose(cert.capacity_nats, exact, rel_tol=1e-15)

    def test_degraded_witness_refuses_a_low_solver(self, monkeypatch):
        # A solver 0.1% low in ratio: the 512^2 lattice beats it, so the
        # certificate refuses rather than report the low value.
        real = oracle._disk_max

        def low(*args):
            ratio, param = real(*args)
            return 0.999 * ratio, param

        monkeypatch.setattr(oracle, "_disk_max", low)
        with pytest.raises(InvariantViolated, match="lattice"):
            capacity_certificate(WiretapChannel(I2, (0.5, 0.0), 1.0))

    def test_degraded_refuses_a_beam_above_the_solver(self):
        # A pencil eigenvalue whose rate is 0.05% above the solved search:
        # the search covers every beam, so the certificate refuses rather
        # than report the overstated beam.
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        rate = capacity_certificate(ch).capacity_nats
        (_, l2), q = ch._beam_eig
        ch.__dict__["_beam_eig"] = ((1.001 * math.exp(2.0 * rate), l2), q)
        with pytest.raises(InvariantViolated, match="beam rate"):
            capacity_certificate(ch)

    def test_reduced_rank_inapplicable(self):
        ch = WiretapChannel(((1.0, 1.0), (1.0, 1.0)), (1.0, 0.0), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.verdict == "Inapplicable"
        assert cert.flags == {"reduced_rank": True}
        assert cert.upper is None

    def test_rank_one_product_gets_reduced_rank_certificate(self):
        h = (
            (-0.18319133149809555, -1.0114871424800451),
            (-0.17396599828495232, -0.9605496562252137),
        )
        cert = capacity_certificate(WiretapChannel(h, (1.0, 0.0), 1.0))
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.verdict == "Inapplicable"
        # lambda_1 is the top eigenvalue of B^{-1} A with A = I + H^T H and
        # B = I + g g^T = diag(2, 1): trace a00 / 2 + a11, determinant det(A) / 2.
        hh = mk.matmul2(mk.transpose2(h), h)
        a = ((1.0 + hh[0][0], hh[0][1]), (hh[1][0], 1.0 + hh[1][1]))
        tr = a[0][0] / 2.0 + a[1][1]
        det = mk.det2(a) / 2.0
        lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
        assert math.isclose(cert.lambda1, lam, rel_tol=1e-12)
        assert cert.lower == cert.capacity_nats
        assert cert.upper is None

    def test_zero_channel_has_zero_capacity(self):
        cert = capacity_certificate(WiretapChannel(((0.0, 0.0), (0.0, 0.0)), (1.0, 0.0), 1.0))
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.lambda1 == 1.0
        assert cert.capacity_nats == 0.0

    def test_singular_gram_falls_back_to_beam(self):
        # sigma_min / sigma_max = 1e-7 passes the rank test, but (H^T H)^{-1}
        # is numerically singular: the tight path must fall back, not raise.
        ch = WiretapChannel(((1.0, 0.0), (0.0, 1e-7)), (0.3, 1e-6), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.GENERAL
        assert cert.verdict == "Inapplicable"
        assert cert.upper is None
        assert cert.flags["tight_path_error"] == "SingularMatrix"
        assert cert.lower == cert.beam.rate == optimal_beam(ch).rate

    @pytest.mark.parametrize("scale", [1e-80, 1e-79, 1e-78])
    def test_underflowed_gram_inverse_falls_back_to_beam(self, scale):
        # Squared gains near 1e-160: (H^T H)^{-1} underflows, so optimize_alpha
        # finds g^T (H^T H)^{-1} g = nan and refuses its precondition.
        h = mk.matscale2(scale, ((1.0, 0.5), (0.2, 1.2)))
        ch = WiretapChannel(h, mk.scale2(scale, (1.1, 0.9)), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.GENERAL
        assert cert.verdict == "Inapplicable"
        assert cert.upper is None
        assert cert.flags["tight_path_error"] == "PreconditionFailed"
        assert cert.lower == cert.beam.rate == optimal_beam(ch).rate

    # A General channel at huge P whose beam is nearly orthogonal to g, so the
    # 2x2 form of 1 + g^T S g in the Gaussian rate cancels below zero in
    # floats.  The rate identity falls back to the beam's exact rate,
    # (1/2) log1p(rho), which meets (1/2) log lambda_1, and the exact bracket
    # certifies the beam.
    LARGE_P_CANCELLING = [
        (
            ((1.3876555174965057, 1.1830863365109388), (0.3197712146866956, 0.18389087740931595)),
            (123.5296812238942, 150.5091860907951),
            605833754515.1425,
            "Gaussian rate",
        ),
    ]

    @pytest.mark.parametrize("h,g,power,route", LARGE_P_CANCELLING)
    def test_cancelled_log_argument_falls_back_to_beam(self, h, g, power, route):
        ch = WiretapChannel(h, g, power)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.GENERAL
        assert cert.verdict == "Tight", route
        assert "tight_path_error" not in cert.flags
        assert cert.residuals["sylvester_rel"] <= EPS_ID
        assert cert.lower == cert.beam.rate == optimal_beam(ch).rate > 11.0
        rho = oracle._beam_excess(ch, cert.beam.q_a)
        assert oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))

    def test_genie_routes_agree_where_a_determinant_cancelled(self):
        # At this P the 2x2 determinant det(I + A(a*) S) cancels below zero
        # in floats.  The rank-one genie routes are sums of non-negative terms
        # and agree, the beam's exact rate meets (1/2) log lambda_1, and the
        # exact bracket certifies the beam.
        ch = WiretapChannel(
            ((1.1094968675107775, 1.11669000377543), (-0.03938338001097003, 0.023625996982681623)),
            (-409.4379219575822, -281.8457096192032),
            185479192680.91147,
        )
        cert = capacity_certificate(ch)
        assert cert.verdict == "Tight"
        assert cert.residuals["sylvester_rel"] <= EPS_ID
        assert cert.residuals["three_path_u_rel"] <= 1e-11
        assert cert.lower == cert.beam.rate == optimal_beam(ch).rate > 11.0
        rho = oracle._beam_excess(ch, cert.beam.q_a)
        assert oracle._bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))

    def test_boundary_channel_is_certified(self):
        ch = WiretapChannel(I2, (1.0 + 2e-10, 0.0), 1.0)
        cert = capacity_certificate(ch)
        assert abs(cert.capacity_nats - gaussian_rate_reference(ch)) <= 1e-14

    def test_upper_bound_valid_for_sampled_correlations(self, suite1000):
        # Every admissible correlation upper-bounds the capacity.
        rng = random.Random(21)
        for ch in suite1000[:5]:
            lower = optimal_beam(ch).rate
            for _ in range(20):
                r = math.sqrt(rng.uniform(0, 0.98))
                phi = rng.uniform(0, 2 * math.pi)
                a = (r * math.cos(phi), r * math.sin(phi))
                assert solved_upper_value(ch, a) >= lower - 1e-3

    def test_certificate_gain_matrix_consistency(self, suite1000):
        # A(a*) assembled from theta* q_perp q_perp^T equals the generic
        # rank-one coupling form evaluated at a*.
        for ch in suite1000[:100]:
            tc = optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
            direct = coupling_gain_matrix(ch, tc.a_star)
            err = max(
                abs(direct[i][j] - tc.A_star[i][j]) for i in range(2) for j in range(2)
            )
            assert err <= 1e-8 * max(1.0, mk.fro2(tc.A_star))


class TestCertificateInvariance:
    """The capacity is invariant under a rotation or reflection U of the
    receiver's antennas, H -> U H, and V of the transmitter's, (H, g) ->
    (H V, V^T g), which maps every covariance S to V^T S V."""

    @staticmethod
    def _assert_same_certificates(pairs):
        for ch, moved in pairs:
            for power in (1e-2, 1.0, 1e4, 1e8):
                cert = capacity_certificate(ch.with_power(power))
                other = capacity_certificate(moved.with_power(power))
                assert (other.kind, other.verdict) == (cert.kind, cert.verdict)
                cap = cert.capacity_nats
                assert abs(other.capacity_nats - cap) <= 1e-11 * max(1.0, abs(cap))

    @staticmethod
    def _channels(rng):
        """100 channels with i.i.d. standard normal gains, General and
        Degraded alike, each with a random rotation or reflection."""
        for _ in range(100):
            h = ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1)))
            ch = WiretapChannel(h, (rng.gauss(0, 1), rng.gauss(0, 1)), 1.0)
            yield ch, rotation(rng.uniform(0, 2 * math.pi), reflect=rng.random() < 0.5)

    def test_receiver_rotation_invariance(self):
        self._assert_same_certificates(
            (ch, WiretapChannel(mk.matmul2(u, ch.H), ch.g, ch.P))
            for ch, u in self._channels(random.Random(13))
        )

    def test_transmitter_rotation_invariance(self):
        self._assert_same_certificates(
            (ch, WiretapChannel(mk.matmul2(ch.H, v), mk.matvec2(mk.transpose2(v), ch.g), ch.P))
            for ch, v in self._channels(random.Random(14))
        )


def best_beam_reference(h, g, power) -> float:
    """(1/2) log of the top generalized eigenvalue of (I + P H^T H, I + P g g^T),
    formed in 50-digit arithmetic from the float H and g: the root of
    det B x^2 - t x + det A = 0, t = a11 b22 + a22 b11 - 2 a12 b12."""
    with mpmath.workdps(50):
        hm = [[mpmath.mpf(x) for x in row] for row in h]
        gm = [mpmath.mpf(x) for x in g]
        p = mpmath.mpf(power)
        a = [
            [int(i == j) + p * (hm[0][i] * hm[0][j] + hm[1][i] * hm[1][j]) for j in range(2)]
            for i in range(2)
        ]
        b = [[int(i == j) + p * gm[i] * gm[j] for j in range(2)] for i in range(2)]
        det_a = a[0][0] * a[1][1] - a[0][1] ** 2
        det_b = b[0][0] * b[1][1] - b[0][1] ** 2
        t = a[0][0] * b[1][1] + a[1][1] * b[0][0] - 2 * a[0][1] * b[0][1]
        lam = (t + mpmath.sqrt(t * t - 4 * det_a * det_b)) / (2 * det_b)
        return float(mpmath.log(lam) / 2)


class TestReducedRankCertificate:
    @pytest.mark.parametrize("power", [1e12, 1e16, 1e20])
    def test_near_rank_one_reports_no_upper_bound(self, power):
        # sigma_2 / sigma_1 = 0.99e-8 is ReducedRank, but sigma_2 > 0: the
        # Gaussian maximum over every covariance exceeds the best beam, so
        # no rank-one reduction bounds the capacity from above.
        h = ((1.0, 0.0), (0.0, 0.99e-8))
        ch = WiretapChannel(h, (0.1, 0.0), power)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.upper is None
        with mpmath.workdps(50):
            gram = [[mpmath.mpf(h[0][0]) ** 2, 0], [0, mpmath.mpf(h[1][1]) ** 2]]
            ceiling = 0.5 * math.log(disk_max_reference(gram, ch.g, power))
        assert cert.capacity_nats <= ceiling

    def test_diagonal_battery_matches_the_50_digit_best_beam(self):
        rng = random.Random(18)
        for eps in (0.0, 1e-9, 3e-9, 9e-9):
            for g_kind in ("zero", "axis", "normal"):
                for _ in range(3):
                    s = 10.0 ** rng.uniform(-1.0, 1.0)
                    h = ((s, 0.0), (0.0, s * eps))
                    if g_kind == "zero":
                        g = (0.0, 0.0)
                    elif g_kind == "axis":
                        g = (10.0 ** rng.uniform(-1.0, 1.0), 0.0)
                    else:
                        g = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                    for power in (1.0, 1e4, 1e8, 1e12):
                        cert = capacity_certificate(WiretapChannel(h, g, power))
                        assert cert.kind is ChannelKind.REDUCED_RANK
                        assert cert.upper is None
                        ref = best_beam_reference(h, g, power)
                        err = abs(cert.capacity_nats - ref)
                        assert err <= 1e-9 * max(1.0, abs(ref)), (h, g, power)


class TestBoundaryBand:
    """Channels with ||H^{-T} g|| within 1e-9 of 1 get certificates: on both
    sides of the boundary the capacity is the Gaussian maximum over every
    covariance, which the General and Degraded branches both report."""

    DELTAS = (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-10, -1e-10, 1e-8, -1e-8)
    POWERS = (1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e16)

    def test_battery_matches_the_50_digit_gaussian_maximum(self):
        channels, _ = sample_general_channels(3, 10)
        tight = 0
        for base in channels:
            eve_norm = mk.norm2(mk.matvec2(mk.inv2(mk.transpose2(base.H)), base.g))
            for delta in self.DELTAS:
                scale = (1.0 + delta) / eve_norm
                g = (base.g[0] * scale, base.g[1] * scale)
                for power in self.POWERS:
                    ch = WiretapChannel(base.H, g, power)
                    cert = capacity_certificate(ch)
                    ref = gaussian_rate_reference(ch)
                    err = abs(cert.capacity_nats - ref)
                    assert err <= 1e-14 * max(1.0, abs(ref)), (ch, cert.verdict)
                    if cert.verdict == "Tight":
                        tight += 1
                        rho = oracle._beam_excess(ch, cert.beam.q_a)
                        a_star = cert.correlation.a_star
                        assert oracle._bound_at_most(ch, a_star, rho * (1.0 + EPS_GRID))
        assert tight > 0

    @pytest.mark.parametrize(
        "g1,code,error", [(1.0, 0, None), (1.0 + 2e-10, 1, "InvariantViolated")]
    )
    def test_oracle_exit(self, capsys, tmp_path, g1, code, error):
        # On the General side optimize_alpha finds no a* inside the unit disk:
        # the verb names the stage's error rather than a traceback.
        path = tmp_path / "band.json"
        path.write_text(json.dumps({"H": [[1, 0], [0, 1]], "g": [g1, 0], "P": 1}))
        assert main(["oracle", str(path)]) == code
        out, err = capsys.readouterr()
        if error is None:
            assert json.loads(out)["passes"] and err == ""
        else:
            assert out == "" and json.loads(err)["error"]["type"] == error
