"""Tooling: the suite's pytest settings (a failing property test reports its
falsifying example instead of aborting the run), what importing the
command-line front end loads, and that every tolerance has a reader."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
    # its witness lattice.)  A General sweep takes the same path per row.
    specs = {
        "general.json": '{"H": [[1, 0], [0, 1]], "g": [2, 0], "P": 1}',
        "reduced_rank.json": '{"H": [[1, 0], [0, 0.99e-8]], "g": [0.1, 0], "P": 1e12}',
    }
    for name, spec in specs.items():
        (tmp_path / name).write_text(spec)
    calls = [
        ["capacity", "general.json"],
        ["capacity", "reduced_rank.json"],
        ["sweep", "general.json", "--pmin", "1e-2", "--pmax", "1e10", "--steps", "13"],
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
    runs.append((code, json.loads(text)["class"] if argv[0] == "capacity" else text.count("\\n")))
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
    assert proc.stdout == "[(0, 'General'), (0, 'ReducedRank'), (0, 14)] []\n"


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
