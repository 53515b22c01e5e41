"""Tooling: the suite's pytest settings (a failing property test reports its
falsifying example instead of aborting the run), what importing the
command-line front end loads, that its numpy-free outputs are the same on
every supported interpreter, and that every tolerance has a reader."""

import ast
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src" / "secrecy221"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_test_reports_its_example(tmp_path):
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            str(test_file),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


def test_importing_the_cli_leaves_numpy_unloaded(tmp_path):
    # A General or ReducedRank capacity certificate never calls numpy, so a
    # one-shot `capacity` process should not pay for importing it; nor for
    # dataclasses, which pulls in inspect, ast and dis.  `site` may preload
    # modules, so only what the import and the calls add to a bare
    # interpreter counts.  (A Degraded certificate still loads numpy through
    # its witness lattice.)  A General sweep takes the same path per row,
    # and an `oracle` report, whose searches are solved in pure Python and
    # which samples nothing, calls numpy on no class of channel.
    specs = {
        "general.json": '{"H": [[1, 0], [0, 1]], "g": [2, 0], "P": 1}',
        "reduced_rank.json": '{"H": [[1, 0], [0, 0.99e-8]], "g": [0.1, 0], "P": 1e12}',
        "degraded.json": '{"H": [[1, 0.3], [-0.2, 0.8]], "g": [0.4, 0.3], "P": 2}',
    }
    for name, spec in specs.items():
        (tmp_path / name).write_text(spec)
    calls = [
        ["capacity", "general.json"],
        ["capacity", "reduced_rank.json"],
        ["sweep", "general.json", "--pmin", "1e-2", "--pmax", "1e10", "--steps", "13"],
        ["oracle", "general.json"],
        ["oracle", "degraded.json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    code = """
import io, json, sys
before = set(sys.modules)
import secrecy221.cli as cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, sys.stdout = sys.stdout, io.StringIO()
    code = cli.main(argv)
    text, sys.stdout = sys.stdout.getvalue(), out
    runs.append((code, text.count("\\n") if argv[0] == "sweep" else json.loads(text)["class"]))
print(runs, sorted({"numpy", "dataclasses", "inspect"} & (set(sys.modules) - before)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[(0, 'General'), (0, 'ReducedRank'), (0, 14), (0, 'General'), (0, 'Degraded')] []\n"
    )


# Runs each [argv, stdin] of the JSON file named by argv[1] through the CLI
# and writes "exit <code>" and the call's stdout, in order.
CLI_CALLS = """
import io, json, sys
import secrecy221.cli as cli
with open(sys.argv[1], encoding="utf-8") as fh:
    calls = json.load(fh)
for argv, spec in calls:
    sys.stdin = io.StringIO(spec)
    out, sys.stdout = sys.stdout, io.StringIO()
    code = cli.main(argv)
    text, sys.stdout = sys.stdout.getvalue(), out
    sys.stdout.write(f"exit {code}\\n{text}")
"""


def test_numpy_free_outputs_match_across_interpreters(tmp_path):
    # Certificates and oracle reports are float and integer arithmetic in
    # pure Python, so each supported CPython must print the same bytes.
    # General and ReducedRank certificates, sweeps and oracle reports import
    # no numpy, which the other interpreters may lack, so the channels are
    # drawn here with random.
    from secrecy221 import ChannelKind, WiretapChannel, classify

    rng = random.Random(310)
    found = {ChannelKind.GENERAL: [], ChannelKind.REDUCED_RANK: []}
    while len(found[ChannelKind.GENERAL]) < 6 or len(found[ChannelKind.REDUCED_RANK]) < 3:
        a, b, c, d, g1, g2 = (rng.gauss(0, 1) for _ in range(6))
        h = ((a * c, a * d), (b * c, b * d)) if rng.random() < 0.3 else ((a, b), (c, d))
        kind = classify(WiretapChannel(h, (g1, g2), 1.0)).kind
        if kind in found and len(found[kind]) < (6 if kind is ChannelKind.GENERAL else 3):
            found[kind].append({"H": [list(h[0]), list(h[1])], "g": [g1, g2]})
    calls = [
        [["capacity", "-"], json.dumps({**spec, "P": power})]
        for specs in found.values()
        for spec in specs
        for power in (1e-8, 1e-2, 1.0, 3.7, 1e4, 1e9)
    ]
    calls += [
        [["oracle", "-"], json.dumps({**spec, "P": power})]
        for spec in found[ChannelKind.GENERAL]
        for power in (1.0, 1e4)
    ]
    general = json.dumps({**found[ChannelKind.GENERAL][0], "P": 1.0})
    sweep = ["sweep", "-", "--pmin", "1e-3", "--pmax", "1e9", "--steps", "25", "--log-spacing"]
    calls.append([sweep, general])
    (tmp_path / "calls.json").write_text(json.dumps(calls))

    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))

    def outputs(python):
        proc = subprocess.run(
            [python, "-c", CLI_CALLS, "calls.json"],
            capture_output=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, (python, proc.stderr.decode())
        return proc.stdout

    expected = outputs(sys.executable)
    # Every call prints a certificate, a sweep or an oracle report: exit 0 or 2.
    assert expected.count(b"exit 0\n") + expected.count(b"exit 2\n") == len(calls)
    compared = []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        python = shutil.which(name)
        if python is None:
            continue
        try:
            probe = subprocess.run(
                [python, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else None
        if version is None or version == sys.version_info[:2]:
            continue  # does not start, or is the running interpreter's version
        assert outputs(python) == expected, name
        compared.append(name)
    if not compared:
        pytest.skip("no other CPython 3.10-3.13 starts on PATH")


def test_every_tolerance_is_read_by_another_module():
    # tolerances.py promises one definition per tolerance; a constant that no
    # other module reads is a gate that nothing applies.
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    defined = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "tolerances.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
    assert defined
    assert sorted(defined - read) == []
