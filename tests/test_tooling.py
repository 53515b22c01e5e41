"""Tooling: the suite's pytest settings (a failing property test reports its
falsifying example instead of aborting the run), and what importing the
command-line front end loads."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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


def test_importing_the_cli_leaves_numpy_unloaded():
    # A capacity certificate never calls numpy, so a one-shot `capacity`
    # process should not pay for importing it; nor for dataclasses, which
    # pulls in inspect, ast and dis.  `site` may preload modules, so only
    # what the import adds to a bare interpreter counts.
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    code = (
        "import sys; before = set(sys.modules); import secrecy221.cli; "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
