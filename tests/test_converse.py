"""Upper-bound tests: the correlation family, its optimizer, the bound
evaluations, and the capacity certificate."""

import dataclasses
import json
import math
import random

import pytest

from secrecy221 import (
    ChannelKind,
    TightCorrelation,
    WiretapChannel,
    a_zero_witness,
    beam_covariance,
    brute_force_gaussian,
    brute_force_upper,
    capacity_certificate,
    coupling_gain_matrix,
    min_over_a,
    optimal_beam,
    optimize_alpha,
    validate_covariance,
)
from secrecy221 import matkit as mk
from secrecy221 import converse
from secrecy221.cli import main
from secrecy221.converse import (
    RESIDUAL_TOLERANCES,
    _certificate_verdict,
    _upper_bound_max_detail,
    _upper_value_detail,
)
from secrecy221.errors import (
    BoundaryAmbiguous,
    DegenerateDirection,
    NoiseDegenerate,
    PreconditionFailed,
    SingularMatrix,
)
from secrecy221.tolerances import EPS_CERT, EPS_ID

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


def upper_value(ch, s, a):
    """U(S, a) for the covariance s, its three evaluation routes within EPS_ID."""
    value, residual = _upper_value_detail(ch, validate_covariance(s, ch.P), a)
    assert residual <= EPS_ID
    return value


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
        for a in ((0.0, 0.0), (0.3, -0.2), (0.7, 0.1)):
            assert upper_value(example_a, ((0.0, 0.0), (0.0, 0.0)), a) == 0.0

    def test_zero_correlation_matches_augmented_gain(self, suite1000):
        # With a = 0 the bound's gain matrix is H^T H + g g^T.
        for ch in suite1000[:50]:
            s_raw = ((0.4, 0.1), (0.1, 0.3))
            got = upper_value(ch, s_raw, (0.0, 0.0))
            gain = mk.matadd2(ch.gram(), mk.outer2(ch.g, ch.g))
            num = mk.det2(mk.matadd2(I2, mk.matmul2(gain, s_raw)))
            den = 1.0 + mk.quad2(s_raw, ch.g)
            assert math.isclose(got, 0.5 * math.log(num / den), rel_tol=1e-12)

    def test_example_a_at_tight_point(self, example_a):
        value = upper_value(example_a, ((0.0, 0.0), (0.0, 1.0)), (0.5, 0.0))
        assert math.isclose(value, 0.5 * math.log(2.0), rel_tol=1e-13)

    def test_three_route_agreement_random(self, suite1000):
        rng = random.Random(4)
        for ch in suite1000[:100]:
            for _ in range(10):
                ang = rng.uniform(0, math.pi)
                p1 = rng.uniform(0, ch.P)
                p2 = rng.uniform(0, ch.P - p1)
                q1 = (math.cos(ang), math.sin(ang))
                q2 = (-q1[1], q1[0])
                s = mk.matadd2(
                    mk.matscale2(p1, mk.outer2(q1, q1)),
                    mk.matscale2(p2, mk.outer2(q2, q2)),
                )
                r = math.sqrt(rng.uniform(0, 0.96))
                phi = rng.uniform(0, 2 * math.pi)
                a = (r * math.cos(phi), r * math.sin(phi))
                upper_value(ch, s, a)  # asserts the three routes agree

    def test_degenerate_noise_rejected(self, example_a):
        with pytest.raises(NoiseDegenerate):
            upper_value(example_a, ((0.0, 0.0), (0.0, 1.0)), (1.0, 0.0))

    def test_nonfinite_correlation_rejected(self, example_a):
        with pytest.raises(NoiseDegenerate):
            upper_value(example_a, ((0.0, 0.0), (0.0, 1.0)), (float("nan"), 0.0))

    def test_off_disk_correlation_is_gated(self, example_a):
        # coupling_gain_matrix is the one unit-disk gate; inv_N has none.
        cov = validate_covariance(((0.0, 0.0), (0.0, 1.0)), example_a.P)
        for a in ((1.0, 0.0), (0.8, 0.7)):
            with pytest.raises(NoiseDegenerate):
                coupling_gain_matrix(example_a, a)
            with pytest.raises(NoiseDegenerate):
                _upper_value_detail(example_a, cov, a)


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
        # Non-trivial instance confirmed by two independent oracles.
        ch = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        cert = capacity_certificate(ch)
        assert cert.verdict == "Tight"
        _, grid_rate = brute_force_gaussian(ch, (512, 512))
        assert abs(cert.lower - grid_rate) <= 1e-3
        _, min_val, _, _ = min_over_a(ch, optimal_beam(ch), 50, seed=6)
        assert min_val >= cert.lower - 1e-3
        assert brute_force_upper(ch, cert.correlation.a_star, (256, 256))[1] <= min_val + 1e-3

    def test_blown_identity_is_nottight(self, monkeypatch, tmp_path, capsys):
        # A wrong theta* blows the {lambda_1, 1} spectrum identity: the
        # residual table, not a raise, must turn that into NotTight.
        real = converse.optimize_alpha

        def doubled(ch, q_perp):
            tc = real(ch, q_perp)
            return dataclasses.replace(tc, theta_star=2.0 * tc.theta_star)

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
            a_mat = mk.symmetrize2(mk.matadd2(ch.gram(), rank_one))
            return dataclasses.replace(tc, theta_star=theta, A_star=a_mat)

        monkeypatch.setattr(converse, "optimize_alpha", perturbed)

    @staticmethod
    def _perturb_inv_n(monkeypatch):
        real = mk.inv_N

        def perturbed(a):
            (n00, *row0), *rows = real(a)
            return ((n00 * (1.0 + 1e-6), *row0), *rows)

        monkeypatch.setattr(mk, "inv_N", perturbed)

    @pytest.mark.parametrize(
        "perturb,judged_by,only",
        [
            ("_perturb_theta", "unit_coupling", False),
            ("_perturb_inv_n", "three_path_u_rel", True),
        ],
        ids=["theta_star", "inv_N"],
    )
    def test_stage_error_is_judged_by_the_table(
        self, monkeypatch, suite1000, perturb, judged_by, only
    ):
        # theta* and N^{-1} are not re-checked by the stages that produce
        # them; the residual table alone must turn their errors into NotTight.
        getattr(self, perturb)(monkeypatch)
        gates = {**RESIDUAL_TOLERANCES, "bound_gap_rel": EPS_CERT}
        for ch in suite1000[:200]:
            cert = capacity_certificate(ch)
            assert cert.verdict == "NotTight"
            failing = {n for n, tol in gates.items() if not cert.residuals[n] <= tol}
            assert judged_by in failing
            if only:
                assert failing == {judged_by}

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
        assert main(["oracle", str(path), "--samples", "4"]) == 0
        capsys.readouterr()
        assert len(calls) == 2
        assert len(beams) == 1

    def test_degraded_inapplicable(self):
        ch = WiretapChannel(I2, (0.5, 0.0), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.DEGRADED
        assert cert.verdict == "Inapplicable"
        assert cert.flags["degraded_formula"] == "numerical"
        assert cert.flags["grid"] == [512, 512]
        assert "seed" not in cert.flags
        # The full covariance search must do at least as well as beamforming.
        assert cert.capacity_nats >= cert.beam.rate - 1e-12

    def test_reduced_rank_inapplicable(self):
        ch = WiretapChannel(((1.0, 1.0), (1.0, 1.0)), (1.0, 0.0), 1.0)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.verdict == "Inapplicable"
        assert cert.flags["reduced_rank"]
        assert cert.lower == cert.upper

    def test_rank_one_product_gets_reduced_rank_certificate(self):
        h = (
            (-0.18319133149809555, -1.0114871424800451),
            (-0.17396599828495232, -0.9605496562252137),
        )
        cert = capacity_certificate(WiretapChannel(h, (1.0, 0.0), 1.0))
        assert cert.kind is ChannelKind.REDUCED_RANK
        assert cert.verdict == "Inapplicable"
        # For rank-one H the reduced row h = sigma_1 v_1 has h h^T = H^T H, so
        # lambda_1 is the top eigenvalue of B^{-1} A with A = I + H^T H and
        # B = I + g g^T = diag(2, 1): trace a00 / 2 + a11, determinant det(A) / 2.
        hh = mk.matmul2(mk.transpose2(h), h)
        a = ((1.0 + hh[0][0], hh[0][1]), (hh[1][0], 1.0 + hh[1][1]))
        tr = a[0][0] / 2.0 + a[1][1]
        det = mk.det2(a) / 2.0
        lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
        assert math.isclose(cert.lambda1, lam, rel_tol=1e-12)
        assert cert.lower == cert.upper == cert.capacity_nats

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

    # General channels at huge P whose tight path cancels a log argument
    # below zero: the beam is nearly orthogonal to g (1 + g^T S g < 0 in the
    # Sylvester route), or det(I + A(a*) S) < 0 in the genie bound's route 2.
    LARGE_P_CANCELLING = [
        (
            ((1.3876555174965057, 1.1830863365109388), (0.3197712146866956, 0.18389087740931595)),
            (123.5296812238942, 150.5091860907951),
            605833754515.1425,
            "Gaussian rate",
        ),
        (
            ((1.1094968675107775, 1.11669000377543), (-0.03938338001097003, 0.023625996982681623)),
            (-409.4379219575822, -281.8457096192032),
            185479192680.91147,
            "genie bound",
        ),
    ]

    @pytest.mark.parametrize("h,g,power,route", LARGE_P_CANCELLING)
    def test_cancelled_log_argument_falls_back_to_beam(self, h, g, power, route):
        ch = WiretapChannel(h, g, power)
        cert = capacity_certificate(ch)
        assert cert.kind is ChannelKind.GENERAL
        assert cert.verdict == "Inapplicable"
        assert cert.upper is None
        assert cert.flags["tight_path_error"] == "InvariantViolated"
        assert cert.flags["tight_path_message"].startswith(route)
        assert cert.lower == cert.beam.rate == optimal_beam(ch).rate
        assert cert.lower > 11.0

    def test_boundary_propagates(self):
        with pytest.raises(BoundaryAmbiguous):
            capacity_certificate(WiretapChannel(I2, (1.0 + 2e-10, 0.0), 1.0))

    def test_upper_bound_valid_for_sampled_correlations(self, suite1000):
        # Every admissible correlation upper-bounds the capacity.
        rng = random.Random(21)
        for ch in suite1000[:5]:
            lower = optimal_beam(ch).rate
            for _ in range(20):
                r = math.sqrt(rng.uniform(0, 0.98))
                phi = rng.uniform(0, 2 * math.pi)
                a = (r * math.cos(phi), r * math.sin(phi))
                assert brute_force_upper(ch, a, (256, 128))[1] >= lower - 1e-3

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

    def test_beam_covariance_of_tight_point(self, example_a):
        cov = beam_covariance((0.0, 1.0), 1.0)
        assert cov.S == ((0.0, 0.0), (0.0, 1.0))
