"""Public API check: the package exports exactly the names the tests import."""

import ast
from pathlib import Path

import secrecy221

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "secrecy221"


def test_all_is_what_the_tests_import():
    modules = {path.stem for path in SRC.glob("*.py")}
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "secrecy221":
                imported |= {alias.name for alias in node.names}
    assert sorted(secrecy221.__all__) == sorted(imported - modules)
