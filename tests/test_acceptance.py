"""Acceptance suite: the binding criteria for this library, one test per
criterion, each printing a PASS line with its headline numbers.

Criteria (all with pinned tolerances):
  1. Worked example with identity main channel: every closed-form quantity
     at 1e-10 relative, certificate under 1 ms.
  2. Diagonal worked example at 1e-10 relative.
  3. 1000-channel tightness suite: |upper - lower| <= 1e-9 relative and all
     identity residuals pass, under 5 s.
  4. Same suite, brute-force covariance search (solved, and witnessed by
     the 512x512 lattice): unit-rank best covariance, gap within [0, 1e-3]
     nats, the exact bracket certifies the optimum (the genie bound at a*
     stays below its excess widened by EPS_GRID) and puts the beam 0.1 rad
     away below it, under 60 s.
  5. 50 channels x 100 sampled correlations: the searched upper bound never
     dips more than 1e-3 below the lower bound, and the optimized
     correlation attains the sampled minimum within 1e-3, under 120 s.
  6. Positivity and ordering of the null-beam rate on every suite channel.
  7. Root-sign check on 1000 random instances satisfying its hypothesis.
  8. Byte-identical oracle reports across runs and thread counts.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

from conftest import no_nonneg_roots, null_beam_rate, upper_value
from secrecy221 import (
    brute_force_gaussian,
    capacity_certificate,
    coupling_gain_matrix,
    optimal_beam,
    optimize_alpha,
)
from secrecy221 import matkit as mk
from secrecy221 import oracle
from secrecy221.converse import RESIDUAL_TOLERANCES
from secrecy221.tolerances import EPS_GRID, EPS_GRID_EXCESS

REL = 1e-10

EXAMPLE_A_SPEC = '{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}'


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def lattice_512(ch, d_mat):
    """The 512x512 covariance lattice's best rate: the brute force's witness."""
    return 0.5 * math.log(oracle._grid_max_ratio(d_mat, ch.g, ch.P, 512, 512))


def test_criterion_1_worked_example_identity(example_a):
    cert = capacity_certificate(example_a)
    assert cert.verdict == "Tight"
    assert close(cert.capacity_nats, 0.5 * math.log(2.0))
    assert close(cert.capacity_bits, 0.5)
    assert close(cert.beam.q_a[0], 0.0) and close(cert.beam.q_a[1], 1.0)
    assert close(cert.beam.lambda1, 2.0)
    assert close(cert.correlation.theta_star, 3.0)
    assert close(cert.correlation.a_star[0], 0.5)
    assert close(cert.correlation.a_star[1], 0.0)
    a_star_mat = cert.correlation.A_star
    assert close(a_star_mat[0][0], 4.0) and close(a_star_mat[1][1], 1.0)
    assert close(a_star_mat[0][1], 0.0) and close(a_star_mat[1][0], 0.0)
    assert cert.residuals["unit_coupling"] <= REL
    assert close(cert.eigenvalues_of_bound[0], 2.0)
    assert close(cert.eigenvalues_of_bound[1], 1.0)

    # steady-state runtime of the full certificate
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        capacity_certificate(example_a)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"certificate took {best * 1e3:.3f} ms"
    print(
        f"\nPASS criterion 1: identity example Tight, capacity 0.5 bits, "
        f"certificate in {best * 1e6:.0f} us"
    )


def test_criterion_2_worked_example_diagonal(diag_example):
    cert = capacity_certificate(diag_example)
    assert cert.verdict == "Tight"
    assert close(cert.beam.lambda1, 5.0)
    assert close(cert.capacity_nats, 0.5 * math.log(5.0))
    assert close(cert.correlation.theta_star, 3.19)
    assert close(cert.correlation.a_star[0], 0.45)
    assert close(cert.correlation.a_star[1], 0.0)
    a_star_mat = cert.correlation.A_star
    assert close(a_star_mat[0][0], 4.0) and close(a_star_mat[1][1], 4.0)
    assert close(a_star_mat[0][1], 0.0) and close(a_star_mat[1][0], 0.0)
    assert close(cert.eigenvalues_of_bound[0], 5.0)
    assert close(cert.eigenvalues_of_bound[1], 1.0)
    print(
        "\nPASS criterion 2: diagonal example Tight, lambda1 = 5, "
        "theta* = 3.19, a* = (0.45, 0)"
    )


def test_criterion_3_tightness_suite(suite1000):
    t0 = time.perf_counter()
    worst_gap = 0.0
    for ch in suite1000:
        cert = capacity_certificate(ch)
        assert cert.verdict == "Tight"
        gap = abs(cert.upper - cert.lower) / max(1.0, abs(cert.lower))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9
        for name, tol in RESIDUAL_TOLERANCES.items():
            assert cert.residuals[name] <= tol, (name, cert.residuals[name])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"tightness suite took {elapsed:.2f} s"
    print(
        f"\nPASS criterion 3: 1000 channels Tight, worst relative gap "
        f"{worst_gap:.2e}, {elapsed:.2f} s"
    )


def test_criterion_4_unit_rank_and_bracket_suite(suite1000):
    t0 = time.perf_counter()
    worst_gap = -math.inf
    worst_eig = 0.0
    for ch in suite1000:
        beam = optimal_beam(ch)
        s_best, rate = brute_force_gaussian(ch)
        assert lattice_512(ch, ch.gram()) <= rate + EPS_GRID_EXCESS
        gap = beam.rate - rate
        assert gap >= -1e-12, f"grid exceeded the closed form by {-gap:.2e}"
        assert gap <= 1e-3, f"grid fell {gap:.2e} below the closed form"
        worst_gap = max(worst_gap, gap)
        (l1, l2), _ = mk.sym_eig2(s_best.S)
        worst_eig = max(worst_eig, l2)
        assert l2 <= 1e-3 * ch.P

        rho = oracle._beam_excess(ch, beam.q_a)
        a_star = optimize_alpha(ch, mk.orth_perp(beam.q_a)).a_star
        assert oracle._bound_at_most(ch, a_star, rho * (1.0 + EPS_GRID))
        rot = 0.1
        q = (
            beam.q_a[0] * math.cos(rot) - beam.q_a[1] * math.sin(rot),
            beam.q_a[0] * math.sin(rot) + beam.q_a[1] * math.cos(rot),
        )
        assert oracle._beam_excess(ch, q) < rho * (1.0 - EPS_GRID)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"brute-force suite took {elapsed:.2f} s"
    print(
        f"\nPASS criterion 4: 1000 channels, 512x512 witness, worst gap "
        f"{worst_gap:.2e} nats, worst min-eigenvalue {worst_eig:.2e}, "
        f"bracket certifies every optimum, every rotated beam below it, {elapsed:.1f} s"
    )


def test_criterion_5_upper_bound_validity(suite1000):
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    worst_floor = math.inf
    worst_excess = -math.inf
    for ch in suite1000[:50]:
        lower = optimal_beam(ch).rate
        values = []
        for _ in range(100):
            while True:
                r = math.sqrt(rng.uniform(0.0, 1.0))
                if r < 1.0 - 1e-6:
                    break
            ang = rng.uniform(0.0, 2.0 * math.pi)
            a = (r * math.cos(ang), r * math.sin(ang))
            value = upper_value(ch, a)
            assert lattice_512(ch, coupling_gain_matrix(ch, a)) <= value + EPS_GRID_EXCESS
            values.append(value)
            worst_floor = min(worst_floor, value - lower)
            assert value >= lower - 1e-3
        tc = optimize_alpha(ch, mk.orth_perp(optimal_beam(ch).q_a))
        star = upper_value(ch, tc.a_star)
        assert lattice_512(ch, coupling_gain_matrix(ch, tc.a_star)) <= star + EPS_GRID_EXCESS
        excess = star - min(values)
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"validity suite took {elapsed:.2f} s"
    print(
        f"\nPASS criterion 5: 50 channels x 100 correlations, worst "
        f"value-minus-lower {worst_floor:.2e} nats, optimized correlation "
        f"within {max(worst_excess, 0.0):.2e} of the sampled minimum, {elapsed:.1f} s"
    )


def test_criterion_6_positivity_and_ordering(suite1000):
    for ch in suite1000:
        nb = null_beam_rate(ch)
        beam = optimal_beam(ch)
        assert nb > 0.0
        assert nb <= beam.rate + 1e-12
        assert beam.lambda1 > 1.0
    print("\nPASS criterion 6: 0 < null-beam rate <= capacity and lambda1 > 1 on all 1000")


def test_criterion_7_no_nonnegative_roots():
    rng = random.Random(424242)
    eye = ((1.0, 0.0), (0.0, 1.0))
    for _ in range(1000):
        m = ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1)))
        d = mk.matadd2(mk.matmul2(mk.transpose2(m), m), mk.matscale2(0.05, eye))
        g_dir = mk.unit2((rng.gauss(0, 1), rng.gauss(0, 1)))
        target = 1.0 + abs(rng.gauss(0, 2))
        g = mk.scale2(math.sqrt(target / mk.quad2(mk.inv2(d), g_dir)), g_dir)
        lam = abs(rng.gauss(0, 1)) + 1e-3
        assert no_nonneg_roots(d, g, lam)
    print("\nPASS criterion 7: root-sign check on 1000 admissible instances")


def test_criterion_8_oracle_determinism(tmp_path):
    spec = tmp_path / "example_a.json"
    spec.write_text(EXAMPLE_A_SPEC)
    argv = [
        sys.executable,
        "-m",
        "secrecy221",
        "oracle",
        str(spec),
    ]
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        for _ in range(2):
            proc = subprocess.run(argv, capture_output=True, env=env, check=True)
            outputs.append(proc.stdout)
    assert all(out == outputs[0] for out in outputs)
    assert json.loads(outputs[0].decode())["passes"]
    print(
        "\nPASS criterion 8: oracle reports byte-identical across 4 runs "
        "and two thread-count settings"
    )
