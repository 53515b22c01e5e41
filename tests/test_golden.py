"""Byte-identity of CLI stdout on fixed inputs.

The expected outputs in tests/golden/ were recorded before the refactors
they guard (per-channel quantities cached on WiretapChannel; the oracle's
grid and min-over-a entry points folded into one each; the certificate's
residual table made the only gate on the identities it records; theta*
computed once with no classify, re-derivation or inv_N self-check ahead of
that table, the min-over-a relations judged by the oracle verb, the
oracle grid evaluated in row blocks over a per-report frame, and then only
at each angle's origin and full-power candidates, with the grid fixed at
256 x 256 and the grid's random stage seeded with 0); any change to them is
a contract change and has to be made deliberately.  `oracle_example_a.out`
and `ORACLE_SUITE_DIGEST` were re-recorded with the row-pruned engine at
`--grid 256`, before that flag was removed.
"""

import hashlib
import io
from pathlib import Path

import pytest

from secrecy221 import capacity_certificate, sample_general_channels
from secrecy221.cli import certificate_to_dict, dumps, main

GOLDEN = Path(__file__).parent / "golden"

# SHA-256 over `capacity -` on every line of `random --seed 0 --count 1000`:
# each line's stdout followed by "exit <code>\n".  Recorded on x86-64 Linux.
RANDOM_SUITE_DIGEST = "a6e90e953772e39ed8c5743321ab9cb8baefe797b372eb6f69b7950a253df034"

# SHA-256 over the first 100 channels of `sample_general_channels(0, 100)` at
# P = 10**k, k = -24..27 (5,200 certificates, the fallback, NotTight and
# optimal_beam-refusal regions included): each certificate's JSON, or
# "<ExcType>: <message>" when the call raises, followed by "\n".  Recorded on
# x86-64 Linux.
WIDE_POWER_DIGEST = "d738541a361b25a89ddbe65f75c2cf958dc68324bbace2084e8f08a900062694"

# SHA-256 over `oracle - --samples 4` on the first 20 lines of
# `random --seed 0 --count 1000`: each report's stdout followed by
# "exit <code>\n".  Recorded on x86-64 Linux with the row-pruned grid engine
# and its `--grid 256`, the grid every report now uses.
ORACLE_SUITE_DIGEST = "6e1f1e6639ed60272f7779d791d3a6a274db9cd14fb4e43df87c4d76e1608345"

EXAMPLE_A = '{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}'
EXAMPLE_DIAG = '{"H": [[0.9, 0.0], [0.0, 2.0]], "g": [2.0, 0.0], "P": 1.0}'

CASES = [
    ("capacity_example_a", EXAMPLE_A, ["capacity"]),
    ("capacity_example_a_bits", EXAMPLE_A, ["capacity", "--bits"]),
    ("capacity_example_diag", EXAMPLE_DIAG, ["capacity"]),
    ("capacity_example_diag_bits", EXAMPLE_DIAG, ["capacity", "--bits"]),
    (
        "sweep_example_a",
        EXAMPLE_A,
        ["sweep", "--pmin", "1e-2", "--pmax", "1e10", "--steps", "121", "--log-spacing"],
    ),
    ("oracle_example_a", EXAMPLE_A, ["oracle", "--samples", "4"]),
    ("oracle_example_a_defaults", EXAMPLE_A, ["oracle"]),
]


@pytest.mark.parametrize("name,spec,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical(capsys, tmp_path, name, spec, argv):
    path = tmp_path / "channel.json"
    path.write_text(spec)
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


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
        code = main(["oracle", "-", "--samples", "4"])
        digest.update(capsys.readouterr().out.encode())
        digest.update(f"exit {code}\n".encode())
    assert digest.hexdigest() == ORACLE_SUITE_DIGEST


def test_wide_power_certificate_digest():
    channels, _ = sample_general_channels(0, 100)
    digest = hashlib.sha256()
    for k in range(-24, 28):
        for ch in channels:
            try:
                cert = capacity_certificate(ch.with_power(10.0**k))
                text = dumps(certificate_to_dict(cert))
            except Exception as exc:  # noqa: BLE001 - refusals are part of the record
                text = f"{type(exc).__name__}: {exc}"
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == WIDE_POWER_DIGEST
