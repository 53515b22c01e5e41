"""CLI contract tests: JSON/CSV formats, exit codes, determinism, round trips."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from secrecy221 import cli
from secrecy221.cli import dumps, main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_A = '{"H": [[1.0, 0.0], [0.0, 1.0]], "g": [2.0, 0.0], "P": 1.0}'


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
        assert doc["flags"]["degraded_formula"] == "numerical"
        assert doc["capacity_nats"] > 0.0

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

    @pytest.mark.parametrize(
        "spec",
        [
            '{"H": [[1.3876555174965057, 1.1830863365109388], '
            '[0.3197712146866956, 0.18389087740931595]], '
            '"g": [123.5296812238942, 150.5091860907951], "P": 605833754515.1425}',
            '{"H": [[1.1094968675107775, 1.11669000377543], '
            '[-0.03938338001097003, 0.023625996982681623]], '
            '"g": [-409.4379219575822, -281.8457096192032], "P": 185479192680.91147}',
        ],
        ids=["sylvester_den", "genie_route_2"],
    )
    def test_large_power_cancellation_falls_back_with_exit_zero(self, capsys, tmp_path, spec):
        path = tmp_path / "large_p.json"
        path.write_text(spec)
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "General"
        assert doc["verdict"] == "Inapplicable"
        assert doc["upper_nats"] is None
        assert doc["flags"]["tight_path_error"] == "InvariantViolated"
        assert doc["capacity_nats"] == doc["beam"]["rate_nats"] > 11.0

    def test_zero_channel_has_zero_capacity(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"H": [[0,0],[0,0]], "g": [1,0], "P": 1}')
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "ReducedRank"
        assert doc["capacity"] == 0.0

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
            (["oracle", "{path}", "--samples", "0"], "oracle requires"),
            (["oracle", "{path}", "--samples", "-3"], "oracle requires"),
            (["oracle", "{path}", "--seed", "-1"], "oracle requires"),
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
        code, out, _ = run(
            capsys,
            ["oracle", example_a_path, "--samples", "8", "--seed", "7"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"]
        assert doc["kkt_optimum"]["passes"]
        assert not doc["kkt_perturbed"]["passes"]
        assert doc["grid_search"]["gap_nats"] <= 1e-3
        assert doc["min_over_a"]["value_nats"] >= doc["closed_form"]["rate_nats"] - 1e-3

    def test_failed_min_over_a_relation_exits_two(
        self, capsys, monkeypatch, example_a_path
    ):
        # A grid bound 0.1 nats below the achievable rate breaks the first
        # min-over-a relation: a report with passes false, not a bare error.
        from secrecy221 import oracle

        real = oracle.brute_force_upper

        def low(*args):
            cov, value = real(*args)
            return cov, value - 0.1

        monkeypatch.setattr(oracle, "brute_force_upper", low)
        argv = ["oracle", example_a_path, "--samples", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["min_over_a"]["min_minus_lower_nats"] < 0.0

    @pytest.mark.parametrize("grid", ["0", "1", "256"])
    def test_grid_is_not_an_argument(self, capsys, example_a_path, grid):
        # Every report searches the same 256 x 256 grid; the sizes once
        # refused and the one once recommended are all unrecognized now.
        with pytest.raises(SystemExit) as exc:
            main(["oracle", example_a_path, "--grid", grid])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err

    def test_seed_determinism_in_process(self, capsys, example_a_path):
        argv = ["oracle", example_a_path, "--samples", "8", "--seed", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

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
        assert "min_over_a" not in doc


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
        code, out, _ = run(capsys, ["oracle", example_a_path, "--samples", "4"])
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
