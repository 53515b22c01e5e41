"""Byte-identity of CLI stdout on fixed inputs.

The expected outputs in tests/golden/ were recorded before the refactors
they guard (per-channel quantities cached on WiretapChannel; the oracle's
grid and min-over-a entry points folded into one each; the certificate's
residual table made the only gate on the identities it records; theta*
computed once with no classify, re-derivation or N^{-1} self-check ahead of
that table, the min-over-a relations judged by the oracle verb, the
oracle grid evaluated in row blocks over a per-report frame, and then only
at each angle's origin and full-power candidates, with the grid fixed at
256 x 256); any change to them is a contract change and has to be made
deliberately.  `oracle_example_a.out` and `ORACLE_SUITE_DIGEST` were
re-recorded when every covariance search was solved by Dinkelbach's
iteration on the trace-P disk and the report lost its "grid" field: the grid-search rates moved by at most 1.7e-16 nats,
the min-over-a values by at most 1.1e-16 nats down or 5.5e-4 nats up, and
every report's verdict and exit code held.  `ORACLE_SUITE_DIGEST` alone was
re-recorded again when the KKT check took the channel and the beam and
formed its gradient by Sherman-Morrison, with no 2x2 inverse: 18 of its 20
reports changed only in the last digits of their `kkt_optimum` numbers,
and every exit code, every `passes` and every byte outside the two KKT
sections held; the example-A reports stayed byte-identical.
`capacity_example_degraded.out` pins the Degraded branch, on a channel
whose optimal covariance is full-rank; its capacity is also checked
against a 50-digit reference.  `DEGRADED_WIDE_POWER_DIGEST` pins the
Degraded certificate on 50 channels across 33 power decades, and
`ORACLE_POWER_DIGEST` pins the default `oracle` report across five power
decades, exit codes included; both were recorded before the oracle's
sampled bounds and the Degraded rate were searched for their value alone.
`REDUCED_RANK_WIDE_POWER_DIGEST` pins the ReducedRank certificate on 48
diagonal and rotated channels, exactly and nearly rank one, across 33 power
decades; it was recorded when that certificate took the best beam of H
from the channel's own beam pencil and dropped the upper bound of the
rank-one reduction, which was false whenever sigma_2 > 0.
`oracle_example_a.out`, `ORACLE_SUITE_DIGEST`, `ORACLE_POWER_DIGEST` and
`ORACLE_POWER_EXITS` were re-recorded once when the exact bracket replaced
the float KKT test: each report's `bracket` and `perturbed` sections
replaced `kkt_optimum` and `kkt_perturbed`, every other field held, the
Degraded reports stayed byte-identical, and the only exit codes that moved
were the ten General channels of `ORACLE_POWER_DIGEST` at P = 1e-10, from 2
to 0.  They were re-recorded again when the report dropped its sampled
correlations (the `samples`, `seed` and `min_over_a` fields, and the verb's
`--samples` and `--seed` options): every other field of all 76 reports was
byte-identical, and every exit code held.  `sweep_example_a.out` was
re-recorded once when a sweep's first and last rows were put at exactly
--pmin and --pmax (they had been exp(log(p)), here 0.010000000000000004 and
10000000000.000004); no other row changed.  `sweep_example_a_linear.out`
(whose last power, 0.3 + (0.9 - 0.3), rounds to 0.9000000000000001) and
`sweep_example_a_linear_wide.out` pin linear spacing; they were recorded
before each sweep power was computed as its row is printed.
`RANDOM_SUITE_DIGEST` and `WIDE_POWER_DIGEST` were re-recorded once when
the genie bound lost its estimation-error route, leaving two: outside
`residuals.three_path_u_rel` the bytes held, except on the 25 wide-battery
certificates whose verdict moved (11 NotTight to Tight, each certified by
the exact bracket, and 14 Inapplicable to NotTight, where that route's
determinant had cancelled), and every exit code held.  They were
re-recorded again, with `capacity_example_a.out`, `capacity_example_a_bits.out`,
`capacity_example_diag.out` and `capacity_example_diag_bits.out`, when both
genie routes were evaluated in rank-one form at the beam and General
certificates lost `flags.no_eavesdropper` (always false there, since g != 0):
the four files lost only that line and the comma before it.  In the digests
no `capacity_nats`, `capacity_bits`, `lower_nats` or `lambda1` byte moved,
and every raise held; outside `residuals.three_path_u_rel` and that flag the
bytes held except on the 208 wide-battery certificates whose verdict moved:
145 NotTight and 5 Inapplicable to Tight, each certified by the exact
bracket, and 58 Inapplicable to NotTight, where a route-1 or route-2
determinant had cancelled.  No Tight certificate was lost.
`RANDOM_SUITE_DIGEST` and `WIDE_POWER_DIGEST` alone were re-recorded once
more when the rate identity `residuals.sylvester_rel` compared the beam's
exact rate with (1/2) log lambda_1 instead of the float Sylvester twin: the
1,000-channel suite stayed 1,000 Tight with every exit code, and only
`sylvester_rel` moved, by at most 4.5e-16.  In the wide battery every raise
held and every certificate whose verdict held moved only in `sylvester_rel`;
1,689 verdicts moved, 837 NotTight and 770 Inapplicable to Tight, and 82
Inapplicable to NotTight at 1e24 to 1e27, where the float beam's exact rate
misses (1/2) log lambda_1, so `capacity` exits 2 there instead of 0.  No
capacity, `lower_nats` or `lambda1` byte moved, and no Tight was lost.
`capacity_example_degraded.out` and `DEGRADED_WIDE_POWER_DIGEST` were
re-recorded once when the Degraded certificate stopped solving the beam
problem: each lost its `beam` section and `flags.no_eavesdropper`, and every
other byte, every capacity and `lambda1` included, held.
`WIDE_POWER_DIGEST` alone was re-recorded when `optimal_beam` lost its float
rate check, which had raised on 156 of its calls at 1e23 to 1e27 where the
certificate's exact `sylvester_rel` judges the beam instead: now no call
raises, those 156 are 19 Tight (each exact at its own scale) and 137
NotTight, and every other line is byte-identical.
"""

import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from conftest import gaussian_rate_reference
from secrecy221 import (
    ChannelKind,
    WiretapChannel,
    capacity_certificate,
    classify,
    sample_general_channels,
)
from secrecy221 import matkit as mk
from secrecy221.cli import certificate_to_dict, channel_from_dict, dumps, main

GOLDEN = Path(__file__).parent / "golden"

# SHA-256 over `capacity -` on every line of `random --seed 0 --count 1000`:
# each line's stdout followed by "exit <code>\n".  Recorded on x86-64 Linux.
RANDOM_SUITE_DIGEST = "e5452e2ccd99be60372c902f57a016a0160045914b306a0744d66e1f963e418c"

# SHA-256 over the first 100 channels of `sample_general_channels(0, 100)` at
# P = 10**k, k = -24..27 (5,200 certificates, the fallback and NotTight
# regions included; no call raises): each certificate's JSON followed by
# "\n".  Recorded on x86-64 Linux.
WIDE_POWER_DIGEST = "2296bb45e74f2bff4cd5dcd05588a98c57a8d06f6e1dbf6f67126294b717aa42"

# SHA-256 over `oracle -` on the first 20 lines of
# `random --seed 0 --count 1000`: each report's stdout followed by
# "exit <code>\n".  Recorded on x86-64 Linux with every covariance search
# solved on the trace-P disk and the beam judged by the exact bracket alone.
ORACLE_SUITE_DIGEST = "f88404bc68c2b134bbe44b822ae44b3b4ada2a09af0b942ff6c5bafa59a475f4"

# SHA-256 over 50 Degraded channels at P = 10**k, k = -12..20 (1,650
# certificates): each certificate's JSON, or "<ExcType>: <message>" when the
# call raises, followed by "\n".  Channel i is the i-th of
# `sample_general_channels(0, 50)` with g rescaled to ||H^-T g|| = (i + 1) / 51.
# Recorded on x86-64 Linux.
DEGRADED_WIDE_POWER_DIGEST = "0e4839d468d40a7d2fe75a0eb2839364c8b2acb13d46a6baa4e1d3a8e85f5d59"

# SHA-256 over `oracle -` on `sample_general_channels(11, 10)` plus
# EXAMPLE_DEGRADED, at P = 1e-10, 1e-6, 1, 1e8 and 1e14: each report's
# stdout followed by "exit <code>\n".  Every report exits 0.  Recorded on
# x86-64 Linux.
ORACLE_POWER_DIGEST = "0440d6411541bdd71dd42423acf3bd4db8851b5a87dafd0661cf9130715b4964"
ORACLE_POWER_EXITS = [0] * 55

# SHA-256 over 48 ReducedRank channels at P = 10**k, k = -12..20 (1,584
# certificates), in DEGRADED_WIDE_POWER_DIGEST's format; see
# reduced_rank_channels.  Recorded on x86-64 Linux when these certificates
# took the best beam of H from its own beam pencil and dropped their upper
# bound.
REDUCED_RANK_WIDE_POWER_DIGEST = "bf0ed8ef555bdc90816a15cbd678f575f8fe709fe3fc00258af07141578526b2"

EXAMPLE_A = '{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}'
EXAMPLE_DIAG = '{"H": [[0.9, 0.0], [0.0, 2.0]], "g": [2.0, 0.0], "P": 1.0}'
# Degraded (||H^-T g|| = 0.49), with a full-rank optimal covariance.
EXAMPLE_DEGRADED = '{"H": [[1.0, 0.3], [-0.2, 0.8]], "g": [0.4, 0.3], "P": 2.0}'

CASES = [
    ("capacity_example_a", EXAMPLE_A, ["capacity"]),
    ("capacity_example_a_bits", EXAMPLE_A, ["capacity", "--bits"]),
    ("capacity_example_diag", EXAMPLE_DIAG, ["capacity"]),
    ("capacity_example_diag_bits", EXAMPLE_DIAG, ["capacity", "--bits"]),
    ("capacity_example_degraded", EXAMPLE_DEGRADED, ["capacity"]),
    (
        "sweep_example_a",
        EXAMPLE_A,
        ["sweep", "--pmin", "1e-2", "--pmax", "1e10", "--steps", "121", "--log-spacing"],
    ),
    (
        "sweep_example_a_linear",
        EXAMPLE_A,
        ["sweep", "--pmin", "0.3", "--pmax", "0.9", "--steps", "3"],
    ),
    (
        "sweep_example_a_linear_wide",
        EXAMPLE_A,
        ["sweep", "--pmin", "1e-3", "--pmax", "1e3", "--steps", "41"],
    ),
    ("oracle_example_a", EXAMPLE_A, ["oracle"]),
]


@pytest.mark.parametrize("name,spec,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical(capsys, tmp_path, name, spec, argv):
    path = tmp_path / "channel.json"
    path.write_text(spec)
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_degraded_golden_matches_the_50_digit_reference():
    # The reference maximizes over every covariance from D = H^T H formed
    # in 50 digits, so the check covers the Gram matrix's rounding too.
    ch = channel_from_dict(json.loads(EXAMPLE_DEGRADED))
    cert = capacity_certificate(ch)
    assert cert.kind is ChannelKind.DEGRADED
    exact = gaussian_rate_reference(ch)
    assert abs(cert.capacity_nats - exact) <= 1e-14 * exact
    assert cert.capacity_nats > 0.5 * math.log(cert.lambda1) + 0.05  # full rank beats every beam


def test_random_suite_capacity_digest(capsys, monkeypatch):
    assert main(["random", "--seed", "0", "--count", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1000
    digest = hashlib.sha256()
    for line in lines:
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        code = main(["capacity", "-"])
        digest.update(capsys.readouterr().out.encode())
        digest.update(f"exit {code}\n".encode())
    assert digest.hexdigest() == RANDOM_SUITE_DIGEST


def test_oracle_suite_digest(capsys, monkeypatch):
    assert main(["random", "--seed", "0", "--count", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()[:20]
    digest = hashlib.sha256()
    for line in lines:
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        code = main(["oracle", "-"])
        digest.update(capsys.readouterr().out.encode())
        digest.update(f"exit {code}\n".encode())
    assert digest.hexdigest() == ORACLE_SUITE_DIGEST


def test_wide_power_certificate_digest():
    channels, _ = sample_general_channels(0, 100)
    digest = hashlib.sha256()
    for k in range(-24, 28):
        for ch in channels:
            cert = capacity_certificate(ch.with_power(10.0**k))
            digest.update(dumps(certificate_to_dict(cert)).encode() + b"\n")
    assert digest.hexdigest() == WIDE_POWER_DIGEST


def test_degraded_wide_power_certificate_digest():
    general, _ = sample_general_channels(0, 50)
    channels = [
        WiretapChannel(ch.H, mk.scale2((i + 1) / 51 / classify(ch).eve_norm, ch.g), ch.P)
        for i, ch in enumerate(general)
    ]
    digest = hashlib.sha256()
    for k in range(-12, 21):
        for ch in channels:
            try:
                cert = capacity_certificate(ch.with_power(10.0**k))
                text = dumps(certificate_to_dict(cert))
            except Exception as exc:  # noqa: BLE001 - refusals are part of the record
                text = f"{type(exc).__name__}: {exc}"
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == DEGRADED_WIDE_POWER_DIGEST


def test_oracle_power_digest(capsys, monkeypatch):
    general, _ = sample_general_channels(11, 10)
    specs = [{"H": [list(row) for row in ch.H], "g": list(ch.g)} for ch in general]
    specs.append(json.loads(EXAMPLE_DEGRADED))
    digest = hashlib.sha256()
    codes = []
    for power in (1e-10, 1e-6, 1.0, 1e8, 1e14):
        for spec in specs:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**spec, "P": power})))
            code = main(["oracle", "-"])
            codes.append(code)
            digest.update(capsys.readouterr().out.encode())
            digest.update(f"exit {code}\n".encode())
    assert codes == ORACLE_POWER_EXITS
    assert digest.hexdigest() == ORACLE_POWER_DIGEST


def reduced_rank_channels() -> list[WiretapChannel]:
    """48 channels with sigma_2 / sigma_1 = (0, 1e-9, 3e-9, 9e-9)[i % 4],
    sigma_1 log-uniform in [0.1, 10] and g ~ N(0, I): the first 24 with a
    diagonal H, the rest with H = R(t1) diag(sigma_1, sigma_2) R(t2)^T."""
    rng = random.Random(18)
    channels = []
    for i in range(48):
        s = 10.0 ** rng.uniform(-1.0, 1.0)
        h = ((s, 0.0), (0.0, s * (0.0, 1e-9, 3e-9, 9e-9)[i % 4]))
        g = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if i >= 24:
            r1, r2 = (
                ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t)))
                for t in (rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi))
            )
            h = mk.matmul2(mk.matmul2(r1, h), mk.transpose2(r2))
        channels.append(WiretapChannel(h, g, 1.0))
    return channels


def test_reduced_rank_wide_power_certificate_digest():
    channels = reduced_rank_channels()
    assert all(classify(ch).kind is ChannelKind.REDUCED_RANK for ch in channels)
    digest = hashlib.sha256()
    for k in range(-12, 21):
        for ch in channels:
            try:
                cert = capacity_certificate(ch.with_power(10.0**k))
                text = dumps(certificate_to_dict(cert))
            except Exception as exc:  # noqa: BLE001 - refusals are part of the record
                text = f"{type(exc).__name__}: {exc}"
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == REDUCED_RANK_WIDE_POWER_DIGEST
