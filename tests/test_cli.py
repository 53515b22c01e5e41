"""CLI contract tests: JSON/CSV formats, exit codes, determinism, round trips."""

import io
import json
import math
import random
import tracemalloc
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_rate_reference
from secrecy221 import (
    ChannelKind,
    WiretapChannel,
    capacity_certificate,
    classify,
    cli,
    sample_general_channels,
)
from secrecy221.cli import dumps, main
from secrecy221.converse import LOG2
from secrecy221.oracle import _beam_excess, _bound_at_most
from secrecy221.tolerances import EPS_GRID

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_A = '{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}'

SWEEP_SEED = 2021


# Degraded, rejection-sampled with numpy seed 5 (standard_normal(6), g scaled
# by 0.3), at a power inside the supported range.
DEGRADED_HUGE_P = (
    '{"H": [[-1.091328901695709, -1.3552087462047395], '
    '[0.22478573245989314, -1.109349937891366]], '
    '"g": [0.351088830353488, 0.21497629676215083], "P": 1e26}'
)


@pytest.fixture
def example_a_path(tmp_path):
    path = tmp_path / "example_a.json"
    path.write_text(EXAMPLE_A)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_example_a_bits(self, capsys, example_a_path):
        code, out, _ = run(capsys, ["capacity", example_a_path, "--bits"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Tight"
        assert doc["capacity_bits"] == 0.5
        assert doc["units"] == "bits"
        assert doc["correlation"]["a_star"] == [0.5, 0.0]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_A))
        code, out, _ = run(capsys, ["capacity", "-"])
        assert code == 0
        assert json.loads(out)["verdict"] == "Tight"

    def test_degraded_resolves_with_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "degraded.json"
        path.write_text('{"H": [[1, 0], [0, 1]], "g": [0.5, 0.0], "P": 1.0}')
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Inapplicable"
        assert doc["flags"]["degraded_formula"] == "solved"
        assert doc["capacity_nats"] > 0.0

    def test_degraded_without_a_beam_resolves_at_huge_power(self, capsys, tmp_path):
        # The float beam of this Degraded channel fails its own rate check at
        # P = 1e26; the certificate and the oracle report read lambda_1 from
        # the beam pencil and never solve for the beam.
        path = tmp_path / "degraded_1e26.json"
        path.write_text(DEGRADED_HUGE_P)
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert (doc["class"], doc["verdict"]) == ("Degraded", "Inapplicable")
        assert doc["capacity_nats"] == 31.23673338748711
        exact = gaussian_rate_reference(cli.channel_from_dict(json.loads(DEGRADED_HUGE_P)))
        assert abs(doc["capacity_nats"] - exact) <= 1e-14 * exact
        assert "beam" not in doc and "no_eavesdropper" not in doc["flags"]
        code, out, _ = run(capsys, ["oracle", str(path)])
        assert code == 0
        assert json.loads(out)["passes"] is True

    def test_singular_gram_falls_back_with_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "near_singular.json"
        path.write_text('{"H": [[1, 0], [0, 1e-7]], "g": [0.3, 1e-6], "P": 1}')
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "General"
        assert doc["verdict"] == "Inapplicable"
        assert doc["upper_nats"] is None
        assert doc["flags"]["tight_path_error"] == "SingularMatrix"

    @pytest.mark.parametrize("scale", [1e-80, 1e-79, 1e-78])
    def test_underflowed_gram_inverse_falls_back_with_exit_zero(self, capsys, tmp_path, scale):
        path = tmp_path / "tiny.json"
        h = [[scale, 0.5 * scale], [0.2 * scale, 1.2 * scale]]
        path.write_text(json.dumps({"H": h, "g": [1.1 * scale, 0.9 * scale], "P": 1.0}))
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "General"
        assert doc["verdict"] == "Inapplicable"
        assert doc["flags"]["tight_path_error"] == "PreconditionFailed"

    # General channels at large P where the 2x2 matrix forms of 1 + g^T S g
    # and of det(I + A(a*) S) at the beam S cancel below zero in floats.  The
    # rate identity falls back to the beam's exact rate, and the exact bracket
    # certifies both: the verdict is Tight.
    LARGE_P_TIGHT = [
        '{"H": [[1.3876555174965057, 1.1830863365109388], '
        '[0.3197712146866956, 0.18389087740931595]], '
        '"g": [123.5296812238942, 150.5091860907951], "P": 605833754515.1425}',
        '{"H": [[1.1094968675107775, 1.11669000377543], '
        '[-0.03938338001097003, 0.023625996982681623]], '
        '"g": [-409.4379219575822, -281.8457096192032], "P": 185479192680.91147}',
    ]

    @pytest.mark.parametrize("spec", LARGE_P_TIGHT, ids=["sylvester_den", "genie_det2"])
    def test_large_power_cancellation_falls_back_with_exit_zero(self, capsys, tmp_path, spec):
        path = tmp_path / "large_p.json"
        path.write_text(spec)
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert (doc["class"], doc["verdict"]) == ("General", "Tight")
        assert "tight_path_error" not in doc["flags"]
        assert doc["capacity_nats"] == doc["beam"]["rate_nats"] > 11.0
        ch = cli.channel_from_dict(json.loads(spec))
        cert = capacity_certificate(ch)
        rho = _beam_excess(ch, cert.beam.q_a)
        assert _bound_at_most(ch, cert.correlation.a_star, rho * (1.0 + EPS_GRID))

    def test_large_power_genie_routes_agree_with_exit_two(self, capsys, tmp_path):
        # Channel 41 of sample_general_channels(0, 100) at P = 1e24: the two
        # genie routes agree, but the float beam's exact rate misses
        # (1/2) log lambda_1 by more than the rate identity's gate, so the
        # certificate is an honest NotTight.
        path = tmp_path / "large_p.json"
        path.write_text(
            '{"H": [[0.9544222763812404, 0.544462374203177], '
            '[-0.15405705958282354, 1.080532978717757]], '
            '"g": [-1.4997987888681947, 1.3575717869331891], "P": 1e24}'
        )
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert (doc["class"], doc["verdict"]) == ("General", "NotTight")
        assert "tight_path_error" not in doc["flags"]
        assert doc["residuals"]["sylvester_rel"] > 1e-10
        assert doc["residuals"]["three_path_u_rel"] <= 1e-11
        assert doc["residuals"]["bound_gap_rel"] <= 1e-15
        assert doc["capacity_nats"] == doc["beam"]["rate_nats"] > 27.0

    def test_zero_channel_has_zero_capacity(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"H": [[0,0],[0,0]], "g": [1,0], "P": 1}')
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "ReducedRank"
        assert doc["capacity"] == 0.0
        assert doc["upper_nats"] is None

    def test_malformed_spec_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out, err = run(capsys, ["capacity", str(path)])
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        assert "invalid channel spec" in doc["error"]["message"]

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"H": [[1,0],[0,1]], "g": [2,0], "P": 1, "snr": 3}')
        code, _, err = run(capsys, ["capacity", str(path)])
        assert code == 1
        assert "unknown fields" in json.loads(err)["error"]["message"]

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, ["capacity", "/nonexistent/channel.json"])
        assert code == 1
        assert "cannot read" in json.loads(err)["error"]["message"]


class TestRefusedInputs:
    """Out-of-range arguments and specs exit 1 with ChannelSpecError and an
    empty stdout."""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["sweep", "{path}", "--pmin", "1", "--pmax", "inf", "--steps", "3"], "pmax"),
            (["sweep", "{path}", "--pmin", "1", "--pmax", "1e40", "--steps", "3"], "supported"),
            (["random", "--seed", "-1"], "random requires"),
            (["random", "--power", "1e40"], "supported"),
        ],
    )
    def test_arguments(self, capsys, example_a_path, argv, fragment):
        code, out, err = run(capsys, [a.format(path=example_a_path) for a in argv])
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert fragment in error["message"]

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ('{"H": [[true, false], [0, 1]], "g": ["2", 0], "P": "1"}', "JSON numbers"),
            ('{"H": [[1, 0], [0, 1]], "g": [2, 0], "P": 1' + "0" * 400 + "}", "too large"),
            ('{"H": [[1, 0], [0, 1]], "g": [2, 0], "P": 1e34}', "supported"),
            ('{"H": [[1, 0], [0, 1]], "g": [0.5, 0], "P": 1e34}', "supported"),
            (
                '{"H": [[1e100, 5e99], [2e99, 1.2e100]], "g": [1.1e100, 9e99], "P": 1}',
                "supported",
            ),
            ('{"H": [[1e-80, 0], [0, 1e-80]], "g": [0.5e-80, 0], "P": 1e160}', "supported"),
            (b'\xff\xfe{"H": 1}', "cannot read channel spec"),
            ("[" * 100000, "recursion"),
        ],
        ids=[
            "non_numbers",
            "huge_integer",
            "example_a_huge_power",
            "degraded_huge_power",
            "huge_gains",
            "huge_power_tiny_gains",
            "not_utf8",
            "deeply_nested",
        ],
    )
    def test_specs(self, capsys, tmp_path, spec, fragment):
        path = tmp_path / "channel.json"
        if isinstance(spec, bytes):
            path.write_bytes(spec)
        else:
            path.write_text(spec)
        code, out, err = run(capsys, ["capacity", str(path)])
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert fragment in error["message"]


class TestToleranceOverrides:
    """The verdict tolerance comes from --tol alone (default EPS_CERT)."""

    @pytest.fixture
    def float_gap_channel(self, capsys, tmp_path):
        # Seeded random channel whose upper/lower bounds differ by one ulp,
        # so an absurdly small tolerance flips the verdict to NotTight.
        code = main(["random", "--seed", "1", "--count", "1"])
        captured = capsys.readouterr()
        assert code == 0
        path = tmp_path / "gap.json"
        path.write_text(captured.out)
        return str(path)

    def test_flag_forces_nottight(self, capsys, float_gap_channel):
        code, out, _ = run(capsys, ["capacity", float_gap_channel, "--tol", "1e-30"])
        assert code == 2
        assert json.loads(out)["verdict"] == "NotTight"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_one(self, capsys, example_a_path, tol):
        code, out, err = run(capsys, ["capacity", example_a_path, "--tol", tol])
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert "--tol must be finite and >= 0" in error["message"]

    def test_zero_tolerance_is_valid(self, capsys, example_a_path):
        code, out, _ = run(capsys, ["capacity", example_a_path, "--tol", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["tolerance"] == 0.0
        assert doc["verdict"] == "Tight"


class TestSweep:
    def test_header_and_endpoints(self, capsys, example_a_path):
        code, out, _ = run(
            capsys,
            ["sweep", example_a_path, "--pmin", "1", "--pmax", "4", "--steps", "2"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "P,capacity_nats,capacity_bits,lambda1,verdict"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert math.isclose(float(first[1]), 0.5 * math.log(2.0), rel_tol=1e-15)
        # At P = 4 the top generalized eigenvalue of the identity channel is 5.
        assert math.isclose(float(last[1]), 0.5 * math.log(5.0), rel_tol=1e-15)
        assert float(last[3]) == 5.0
        assert first[4] == last[4] == "Tight"

    @pytest.mark.parametrize("log_spacing", [False, True], ids=["linear", "log"])
    def test_rows_start_and_end_at_the_requested_powers(self, capsys, example_a_path, log_spacing):
        # exp(log(p)) and pmin + (pmax - pmin) round off p and pmax: 1e-2 ..
        # 1e10 in log spacing and 0.3 .. 0.9 in linear spacing both did, and
        # exp(log(p)) puts inner rows below 5 and above 0.1.
        rng = random.Random(SWEEP_SEED)
        ranges = [(1e-2, 1e10, 121), (0.3, 0.9, 3), (0.2, 0.9, 2), (5.0, 5.0, 3), (0.1, 0.1, 4)]
        for _ in range(30):
            pmin = 10.0 ** rng.uniform(-12.0, 12.0)
            ranges.append((pmin, pmin * 10.0 ** rng.uniform(0.0, 12.0), rng.randint(2, 7)))
        for pmin, pmax, steps in ranges:
            argv = ["sweep", example_a_path, "--pmin", repr(pmin), "--pmax", repr(pmax)]
            argv += ["--steps", str(steps), *(["--log-spacing"] if log_spacing else [])]
            code, out, err = run(capsys, argv)
            assert code == 0, err
            powers = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
            assert len(powers) == steps
            assert (powers[0], powers[-1]) == (pmin, pmax)
            assert all(pmin <= p <= pmax for p in powers)

    def test_power_at_the_supported_limit(self, capsys, tmp_path):
        # capacity accepts this P; a log sweep ending at it used to compute
        # it as 1.3012376532267592e+28, beyond MAX_SNR, and refuse the sweep.
        limit = "1.3012376532267584e+28"
        path = tmp_path / "limit.json"
        path.write_text(f'{{"H": [[1, 0], [0, 1]], "g": [8.766408196046324, 0], "P": {limit}}}')
        assert run(capsys, ["capacity", str(path)])[0] == 0
        argv = ["sweep", str(path), "--pmin", "1", "--pmax", limit, "--steps", "5"]
        for spacing in ([], ["--log-spacing"]):
            code, out, err = run(capsys, [*argv, *spacing])
            assert code == 0, err
            assert out.splitlines()[-1].split(",")[0] == limit

    def test_nondecreasing_capacity(self, capsys, example_a_path):
        code, out, err = run(
            capsys,
            [
                "sweep",
                example_a_path,
                "--pmin",
                "0.1",
                "--pmax",
                "50",
                "--steps",
                "20",
                "--log-spacing",
            ],
        )
        assert code == 0
        assert "warning" not in err
        caps = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        for lo, hi in zip(caps, caps[1:]):
            assert hi >= lo - 1e-12

    def test_capacity_decrease_warns_on_stderr(self, capsys, monkeypatch, example_a_path):
        argv = ["sweep", example_a_path, "--pmin", "1", "--pmax", "4", "--steps", "4"]
        code, rows, err = run(capsys, argv)
        assert (code, err) == (0, "")
        real = cli.capacity_certificate

        def dropped_at_3(ch):
            cert = real(ch)
            return cert._replace(capacity_nats=0.25) if ch.P == 3.0 else cert

        monkeypatch.setattr(cli, "capacity_certificate", dropped_at_3)
        code, out, err = run(capsys, argv)
        assert code == 0
        lines, expected = out.splitlines(), rows.splitlines()
        previous = expected[2].split(",")[1]
        assert err == f"warning: capacity decreased at P=3 (0.25 < {previous})\n"
        assert lines[:3] + lines[4:] == expected[:3] + expected[4:]
        fields = (3.0, 0.25, 0.25 / LOG2, 4.0)
        assert lines[3] == ",".join([*map(cli._fmt_float, fields), "Tight"])

    def test_setup_does_not_grow_with_steps(self, capsys, monkeypatch, example_a_path):
        # The header is the first write; the stub stops the sweep at its
        # first row, so tracemalloc's peak covers the set-up and one row.
        class FirstRow(Exception):
            pass

        class Stdout:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise FirstRow(text)

        argv = ["sweep", example_a_path, "--pmin", "1", "--pmax", "1e6", "--steps", "1000000"]
        for spacing in ([], ["--log-spacing"]):
            monkeypatch.setattr("sys.stdout", Stdout())
            tracemalloc.start()
            try:
                code = main([*argv, *spacing])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, json.loads(capsys.readouterr().err)["error"]["type"]) == (1, "FirstRow")
            assert peak < 1_000_000

    def test_degraded_channel_rows(self, capsys, tmp_path):
        path = tmp_path / "degraded.json"
        path.write_text('{"H": [[1, 0], [0, 1]], "g": [0.5, 0.0], "P": 1.0}')
        code, out, _ = run(
            capsys, ["sweep", str(path), "--pmin", "1", "--pmax", "2", "--steps", "2"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(row[4] == "Inapplicable" for row in rows)
        assert float(rows[1][1]) >= float(rows[0][1]) - 1e-12

    def test_boundary_channel_rows_and_refused_range(self, capsys, tmp_path):
        path = tmp_path / "boundary.json"
        path.write_text('{"H": [[1, 0], [0, 1]], "g": [1, 0], "P": 1}')
        argv = ["sweep", str(path), "--pmin", "1", "--pmax", "2", "--steps", "3"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 4
        code, out, err = run(capsys, [*argv[:5], "1e40", *argv[6:]])
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert "invalid sweep power" in error["message"]
        assert repr(1e40) in error["message"]

    def test_range_refused_at_pmax(self, capsys, example_a_path):
        # The power check is monotone in P: --pmax alone decides the range,
        # and the refusal names it rather than the first inner power past it.
        argv = ["sweep", example_a_path, "--pmin", "1", "--pmax", "1e40"]
        code, out, err = run(capsys, [*argv, "--steps", "121", "--log-spacing"])
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert f"at P = {1e40!r} exceeds" in error["message"]

    def test_rows_equal_fresh_certificates(self, capsys, tmp_path):
        # Each row's channel is derived from the previous row's, so a
        # P-dependent member leaking between rows would show up here.
        rng = random.Random(SWEEP_SEED)
        general = sample_general_channels(SWEEP_SEED, 3)[0]
        # Channel 31 of seed 0, swept one row per decade from 1e-16 to 1e27,
        # is Inapplicable at 1e-16 (||a*|| off the disk), Tight in between and
        # NotTight on top, where its float beam misses the rate identity; its
        # beam solve holds to 1e27, which it does not on most channels.  The
        # others are Tight throughout.
        general.append(sample_general_channels(0, 32)[0][31])
        channels = {ChannelKind.GENERAL: general}
        for kind, rank_one in ((ChannelKind.DEGRADED, False), (ChannelKind.REDUCED_RANK, True)):
            found = channels.setdefault(kind, [])
            while len(found) < 2:
                a, b, c, d = (rng.gauss(0, 1) for _ in range(4))
                h = ((a * c, a * d), (b * c, b * d)) if rank_one else ((a, b), (c, d))
                ch = WiretapChannel(h, (rng.gauss(0, 1), rng.gauss(0, 1)), 1.0)
                if classify(ch).kind is kind:
                    found.append(ch)
        seen = set()
        for kind, found in channels.items():
            for ch in found:
                path = tmp_path / "channel.json"
                path.write_text(dumps(ch._asdict()))
                pmin, pmax, steps = ("1e-16", "1e27", 44) if ch is general[-1] else (
                    "1e-14", "1e20", 35)
                code, out, err = run(
                    capsys,
                    [
                        "sweep", str(path), "--pmin", pmin, "--pmax", pmax,
                        "--steps", str(steps), "--log-spacing",
                    ],
                )
                rows = out.splitlines()[1:]
                assert (code, len(rows)) == (0, steps), err
                for row in rows:
                    power = float(row.split(",")[0])
                    cert = capacity_certificate(WiretapChannel(ch.H, ch.g, power))
                    cap = max(0.0, cert.capacity_nats)
                    fields = (power, cap, cap / LOG2, cert.lambda1)
                    assert row == ",".join([*map(cli._fmt_float, fields), cert.verdict])
                    seen.add((kind, cert.verdict, "tight_path_error" in cert.flags))
        assert seen >= {
            (ChannelKind.GENERAL, "Tight", False),
            (ChannelKind.GENERAL, "NotTight", False),
            (ChannelKind.GENERAL, "Inapplicable", True),
            (ChannelKind.DEGRADED, "Inapplicable", False),
            (ChannelKind.REDUCED_RANK, "Inapplicable", False),
        }

    def test_arguments_checked_before_spec(self, capsys, monkeypatch):
        # A refused argument wins over a malformed spec, and stdin is left unread.
        stdin = io.StringIO("{nope")
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["sweep", "-", "--pmin", "1", "--pmax", "4", "--steps", "1"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ChannelSpecError"
        assert error["message"] == "sweep requires steps >= 2"
        assert stdin.read() == "{nope"

    def test_usage_errors(self, capsys, example_a_path):
        code, _, err = run(
            capsys,
            ["sweep", example_a_path, "--pmin", "1", "--pmax", "4", "--steps", "1"],
        )
        assert code == 1
        assert "steps" in json.loads(err)["error"]["message"]
        code, _, err = run(
            capsys,
            ["sweep", example_a_path, "--pmin", "4", "--pmax", "1", "--steps", "3"],
        )
        assert code == 1
        assert "pmin" in json.loads(err)["error"]["message"]


class TestOracleCommand:
    def test_report_passes(self, capsys, example_a_path):
        code, out, _ = run(capsys, ["oracle", example_a_path])
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"]
        assert doc["bracket"]["certified"]
        assert doc["perturbed"]["below"]
        assert doc["grid_search"]["gap_nats"] <= 1e-3
        assert "grid" not in doc  # every search is solved; no grid to report

    def test_wrong_beam_fails(self, capsys, monkeypatch, example_a_path):
        # A closed form off by 0.05 rad, reporting its own beam's rate through
        # the pencil's lambda_1: the solved face must find the better beam,
        # not share the mistake.
        from secrecy221 import achievable
        from secrecy221.tolerances import EPS_GRID_EXCESS

        real = achievable.optimal_beam

        def rotated(ch):
            beam = real(ch)
            c, s = math.cos(0.05), math.sin(0.05)
            q = (c * beam.q_a[0] - s * beam.q_a[1], s * beam.q_a[0] + c * beam.q_a[1])
            (_, l2), _ = ch._beam_eig
            ch.__dict__["_beam_eig"] = ((math.exp(2.0 * achievable.beam_rate(ch, q)), l2), q)
            return beam._replace(q_a=q)

        monkeypatch.setattr(achievable, "optimal_beam", rotated)
        code, out, _ = run(capsys, ["oracle", example_a_path])
        assert code == 2
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["grid_search"]["gap_nats"] < -EPS_GRID_EXCESS

    def test_overstated_rate_fails(self, capsys, monkeypatch, example_a_path):
        # A closed-form rate overstated by one part in a million, with the
        # right beam: the solved search misses it by far more than EPS_GRID.
        # The beam is solved first, so its own rate check sees the true pencil.
        from secrecy221 import achievable

        real = achievable.optimal_beam

        def overstated(ch):
            beam = real(ch)
            (l1, l2), q = ch._beam_eig
            ch.__dict__["_beam_eig"] = ((l1 ** (1.0 + 1e-6), l2), q)
            return beam

        monkeypatch.setattr(achievable, "optimal_beam", overstated)
        code, out, _ = run(capsys, ["oracle", example_a_path])
        assert code == 2
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["grid_search"]["gap_nats"] > 1e-7

    @pytest.mark.parametrize(
        "option,value",
        [("--grid", "0"), ("--grid", "1"), ("--grid", "256"), ("--samples", "4"), ("--seed", "7")],
        ids=["0", "1", "256", "samples", "seed"],
    )
    def test_grid_is_not_an_argument(self, capsys, example_a_path, option, value):
        # Every covariance search is solved, not gridded, and the bracket
        # samples no correlations: the grid sizes once refused and the one
        # once recommended, and the sample count and seed, are unrecognized.
        with pytest.raises(SystemExit) as exc:
            main(["oracle", example_a_path, option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_degraded_channel_report(self, capsys, tmp_path):
        path = tmp_path / "degraded.json"
        path.write_text('{"H": [[1, 0], [0, 1]], "g": [0.5, 0.0], "P": 1.0}')
        code, out, _ = run(capsys, ["oracle", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "Degraded"
        assert doc["passes"]
        # the full covariance search may beat the best unit-rank beam
        assert doc["grid_search"]["rate_nats"] >= doc["closed_form"]["rate_nats"] - 1e-9

    @pytest.mark.parametrize("power", [1e12, 1e14])
    def test_high_snr_reports_pass(self, capsys, monkeypatch, power):
        # Here det(I + D S) / ||I + D S||_F^2 ~ 1 / P, below the 1e-12 floor
        # at which a 2x2 inverse refuses the matrix as singular.  The exact
        # bracket inverts nothing, so each report passes, and the Degraded
        # one carries no bracket, since nothing judges its beam.
        channels, _ = sample_general_channels(11, 4)
        specs = [
            dumps(channels[i].with_power(power)._asdict(), compact=True)
            for i in (0, 2, 3)
        ]
        specs.append(
            dumps({"H": [[1.0, 0.3], [0.2, 1.5]], "g": [0.4, 0.3], "P": power}, compact=True)
        )
        for spec in specs:
            monkeypatch.setattr("sys.stdin", io.StringIO(spec))
            code, out, err = run(capsys, ["oracle", "-"])
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["passes"] is True
            if doc["class"] == "General":
                assert doc["bracket"]["certified"]
                assert doc["perturbed"]["below"]
            else:
                assert doc["class"] == "Degraded"
                assert "bracket" not in doc and "perturbed" not in doc

    @pytest.mark.parametrize("power", [1e-10, 1e-8, 1e-6])
    def test_low_snr_reports_pass(self, capsys, monkeypatch, power):
        # The bracket's width is relative to the beam's exact excess, so it
        # follows P down to where the beam's rate keeps its digits.
        channels, _ = sample_general_channels(11, 60)
        for ch in channels:
            spec = dumps(ch.with_power(power)._asdict(), compact=True)
            monkeypatch.setattr("sys.stdin", io.StringIO(spec))
            code, out, err = run(capsys, ["oracle", "-"])
            assert (code, err) == (0, ""), out

    @pytest.mark.parametrize("power", [1e-10, 1.0, 1e14])
    def test_beam_rotated_by_1e_4_rad_fails(self, capsys, monkeypatch, power):
        # A beam 1e-4 rad off, still reporting the optimum's rate: the rate
        # error is second order in the angle, yet far beyond EPS_GRID of the
        # excess, so the genie bound at its a* cannot certify it.
        from secrecy221 import achievable

        real = achievable.optimal_beam

        def rotated(ch):
            beam = real(ch)
            c, s = math.cos(1e-4), math.sin(1e-4)
            q = (c * beam.q_a[0] - s * beam.q_a[1], s * beam.q_a[0] + c * beam.q_a[1])
            return beam._replace(q_a=q)

        monkeypatch.setattr(achievable, "optimal_beam", rotated)
        channels, _ = sample_general_channels(11, 60)
        for ch in channels:
            spec = dumps(ch.with_power(power)._asdict(), compact=True)
            monkeypatch.setattr("sys.stdin", io.StringIO(spec))
            code, out, _ = run(capsys, ["oracle", "-"])
            assert code == 2
            assert json.loads(out)["bracket"]["certified"] is False


class TestRandom:
    def test_deterministic_and_distinct_seeds(self, capsys):
        code, out1, _ = run(capsys, ["random", "--seed", "1", "--count", "3"])
        assert code == 0
        _, out1b, _ = run(capsys, ["random", "--seed", "1", "--count", "3"])
        _, out2, _ = run(capsys, ["random", "--seed", "2", "--count", "3"])
        assert out1 == out1b
        assert out1 != out2

    def test_count_validation(self, capsys):
        code, _, err = run(capsys, ["random", "--count", "0"])
        assert code == 1
        assert "count" in json.loads(err)["error"]["message"]

    def test_round_trip_through_capacity(self, capsys, monkeypatch):
        # 1000 distinct seeds, one channel each; every document must feed
        # back into the capacity command without error.
        lines = []
        for seed in range(1000):
            code, out, _ = run(capsys, ["random", "--seed", str(seed), "--count", "1"])
            assert code == 0
            lines.append(out.strip())
        assert len(set(lines)) > 990  # distinct seeds give distinct channels
        for line in lines:
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            assert main(["capacity", "-"]) == 0
        capsys.readouterr()

    def test_power_flag(self, capsys):
        code, out, _ = run(capsys, ["random", "--seed", "3", "--count", "1", "--power", "2.5"])
        assert code == 0
        assert json.loads(out)["P"] == 2.5


class TestParserReuse:
    """One parser serves every in-process call: no call's arguments or
    defaults leak into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_sequence(self, capsys, example_a_path):
        def golden(name):
            return (GOLDEN / f"{name}.out").read_text()

        assert run(capsys, ["capacity", example_a_path, "--bits"]) == (
            0, golden("capacity_example_a_bits"), ""
        )
        assert run(capsys, ["capacity", example_a_path]) == (
            0, golden("capacity_example_a"), ""
        )
        code, out, _ = run(capsys, ["capacity", example_a_path, "--tol", "0"])
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.0
        assert run(capsys, ["capacity", example_a_path]) == (
            0, golden("capacity_example_a"), ""
        )
        with pytest.raises(SystemExit) as exc:
            main(["capacity", example_a_path, "--bits", "--nats"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err
        sweep = ["--pmin", "1e-2", "--pmax", "1e10", "--steps", "121", "--log-spacing"]
        code, out, _ = run(capsys, ["sweep", example_a_path, *sweep])
        assert (code, out) == (0, golden("sweep_example_a"))
        code, out, _ = run(capsys, ["oracle", example_a_path])
        assert (code, out) == (0, golden("oracle_example_a"))


NESTED = {
    "a": (1, 2.5, "s"),
    "e": {},
    "l": [],
    "d": {"inner": {"deep": [1, {"k": [True, None]}]}, "t": ()},
}


class TestDumps:
    """The serializer's bytes, recorded from its json.dumps-based version."""

    @pytest.mark.parametrize(
        "obj,compact,expected",
        [
            (
                {
                    'q"uote': "back\\slash",
                    "ctl\n\t\x00\x1f": "\u00e9 \u00fc \U0001d11e \u2028",
                    "": "",
                },
                False,
                '{\n  "q\\"uote": "back\\\\slash",\n'
                '  "ctl\\n\\t\\u0000\\u001f": '
                '"\\u00e9 \\u00fc \\ud834\\udd1e \\u2028",\n'
                '  "": ""\n}',
            ),
            (
                {'q"uote': "back\\slash", "ctl\n\t\x00\x1f": "\u00e9"},
                True,
                '{"q\\"uote": "back\\\\slash", '
                '"ctl\\n\\t\\u0000\\u001f": "\\u00e9"}',
            ),
            (
                [True, 1, 1.0, False, 0, -0.0, None, 1e-300, 123456789012345678901234567890],
                False,
                "[true, 1, 1, false, 0, -0, null, 1e-300, 123456789012345678901234567890]",
            ),
            (
                {"x": np.float64(0.1), "y": [np.float64(1e300), np.float64(-2.5)]},
                False,
                '{\n  "x": 0.10000000000000001,\n  "y": [1.0000000000000001e+300, -2.5]\n}',
            ),
            (
                NESTED,
                False,
                '{\n  "a": [1, 2.5, "s"],\n  "e": {},\n  "l": [],\n  "d": {\n'
                '    "inner": {\n      "deep": [1, {\n        "k": [true, null]\n      }]\n'
                '    },\n    "t": []\n  }\n}',
            ),
            (
                NESTED,
                True,
                '{"a": [1, 2.5, "s"], "e": {}, "l": [], '
                '"d": {"inner": {"deep": [1, {"k": [true, null]}]}, "t": []}}',
            ),
            (
                {2.5: "b", None: "c", 1: "d"},
                False,
                '{\n  "2.5": "b",\n  "None": "c",\n  "1": "d"\n}',
            ),
        ],
        ids=[
            "escapes",
            "escapes_compact",
            "scalars",
            "numpy_float",
            "nested",
            "nested_compact",
            "keys",
        ],
    )
    def test_bytes(self, obj, compact, expected):
        assert dumps(obj, compact=compact) == expected

    def test_indent(self):
        assert dumps([{"a": 1}, {"b": {"c": 2}}], indent=4) == (
            '[{\n      "a": 1\n    }, {\n      "b": {\n        "c": 2\n      }\n    }]'
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": [value]})

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}], ids=["numpy_int64", "set"])
    def test_unsupported_type_refused(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"x": value})

    # Dict layouts are cached by shape; each test below renders a shape
    # after a look-alike one, and checks the bytes recorded from the
    # uncached serializer.

    def test_equal_keys_of_different_types(self):
        # 1 == 1.0 == True as dict keys, so the cache must tell them apart.
        assert [dumps({k: 0.5}) for k in (1, 1.0, True)] == [
            '{\n  "1": 0.5\n}', '{\n  "1.0": 0.5\n}', '{\n  "True": 0.5\n}'
        ]

    def test_equal_keys_with_each_value_type(self):
        # value, its compact bytes, its indented bytes
        values = [
            (0.5, "0.5", "0.5"),
            ("s", '"s"', '"s"'),
            ({"k": 0.25}, '{"k": 0.25}', '{\n    "k": 0.25\n  }'),
            (None, "null", "null"),
            (False, "false", "false"),
        ]
        keys = [(1, "1"), (1.0, "1.0"), (True, "True")]
        for k, name in keys:
            for v, compact, indented in values:
                assert dumps({k: v}) == f'{{\n  "{name}": {indented}\n}}'
                assert dumps({k: v}, compact=True) == f'{{"{name}": {compact}}}'

    def test_equal_keys_that_print_differently(self):
        assert [dumps({k: [1.5]}) for k in (0.0, -0.0, (1,), (1.0,))] == [
            '{\n  "0.0": [1.5]\n}',
            '{\n  "-0.0": [1.5]\n}',
            '{\n  "(1,)": [1.5]\n}',
            '{\n  "(1.0,)": [1.5]\n}',
        ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_refused_in_a_rendered_shape(self, value):
        assert dumps({"x": 1.0, "y": 2.0}) == '{\n  "x": 1,\n  "y": 2\n}'
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": value, "y": 2.0})
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": 1.0, "y": 2.0, "z": [1.0, value]})

    def test_percent_in_keys_and_strings(self):
        doc = {"%s%%": "%d%", "a%": 1.5, "%(x)s": [2.5, "%"]}
        assert dumps(doc) == '{\n  "%s%%": "%d%",\n  "a%": 1.5,\n  "%(x)s": [2.5, "%"]\n}'
        assert dumps(doc, compact=True) == '{"%s%%": "%d%", "a%": 1.5, "%(x)s": [2.5, "%"]}'

    def test_numpy_float_in_a_float_shape(self):
        assert [dumps({"x": x, "y": [x, 2.0]}) for x in (
            0.1, np.float64(0.1), np.float64(-2.5e300)
        )] == [
            '{\n  "x": 0.10000000000000001,\n  "y": [0.10000000000000001, 2]\n}',
            '{\n  "x": 0.10000000000000001,\n  "y": [0.10000000000000001, 2]\n}',
            '{\n  "x": -2.5000000000000001e+300,\n  "y": [-2.5000000000000001e+300, 2]\n}',
        ]

    def test_list_of_dicts(self):
        docs = [{"a": 1.0, "b": [{"c": 0.5, "d": None}, {"c": 2.0, "d": "e"}]},
                {"a": 3.0, "b": []}, {}]
        assert dumps(docs) == (
            '[{\n  "a": 1,\n  "b": [{\n    "c": 0.5,\n    "d": null\n  }, {\n'
            '    "c": 2,\n    "d": "e"\n  }]\n}, {\n  "a": 3,\n  "b": []\n}, {}]'
        )
        assert dumps(docs, compact=True) == (
            '[{"a": 1, "b": [{"c": 0.5, "d": null}, {"c": 2, "d": "e"}]}, {"a": 3, "b": []}, {}]'
        )
        assert dumps(docs, indent=2) == (
            '[{\n    "a": 1,\n    "b": [{\n      "c": 0.5,\n      "d": null\n    }, {\n'
            '      "c": 2,\n      "d": "e"\n    }]\n  }, {\n    "a": 3,\n    "b": []\n  }, {}]'
        )


def reference_dumps(obj, indent=0, compact=False):
    """The serializer as a plain recursion over the document, one call per value."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        names = [encode_basestring_ascii(str(k)) for k in obj]
        if compact:
            items = [f"{k}: {reference_dumps(v, compact=True)}" for k, v in zip(names, obj.values())]
            return "{" + ", ".join(items) + "}"
        pad = " " * indent
        items = [f"{pad}  {k}: {reference_dumps(v, indent + 2)}" for k, v in zip(names, obj.values())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([reference_dumps(v, indent, compact) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _outcome(render, *args, **kwargs):
    try:
        return render(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_TEXT = st.text(alphabet=st.sampled_from('ab%s()"\\\n\u00e9\U0001d11e'), max_size=5)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    _TEXT,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.none(),
    _FINITE,
    _FINITE.map(np.float64),
)
# Refused leaves, drawn rarely so that most documents render.
_REFUSED = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.int64(3), frozenset(), object()]
)
_KEYS = st.one_of(
    _TEXT,
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "%", "%%", (1,), (1.0,)]),
    st.integers(min_value=-5, max_value=5),
)
_DOCUMENTS = st.recursive(
    st.one_of(_LEAVES, _LEAVES, _LEAVES, _LEAVES, _LEAVES, _LEAVES, _LEAVES, _REFUSED),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


def _twin_key(k):
    """A key equal to k that prints differently, where _KEYS has one."""
    if type(k) is float and k == 0.0:
        return -k
    if type(k) is tuple:
        return (float(k[0]),) if type(k[0]) is int else (int(k[0]),)
    return {bool: 1, int: 1.0, float: True}[type(k)] if k == 1 else k


def _twin(doc):
    """doc with every dict key replaced by its twin: equal, but printed differently."""
    if isinstance(doc, dict):
        return {_twin_key(k): _twin(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_twin, doc))
    return doc


class TestDumpsMatchesTheRecursion:
    """Every document renders, or is refused, exactly as the plain recursion does."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(st.dictionaries(_KEYS, _DOCUMENTS, max_size=6), st.lists(_DOCUMENTS, max_size=6)),
        st.sampled_from([0, 2, 5]),
    )
    def test_documents(self, doc, indent):
        # The twin first: its shape compares equal to the document's, so a
        # cache that ignored how keys print would hand the document its layout.
        for compact in (False, True):
            for d in (_twin(doc), doc, doc):
                assert _outcome(dumps, d, indent, compact) == _outcome(
                    reference_dumps, d, indent, compact
                )

