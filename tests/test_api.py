"""Public API checks: every library function and class has a caller inside
the library, and the package exports exactly the names the tests import."""

import ast
from pathlib import Path

import secrecy221

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "secrecy221"


def _names(node: ast.AST) -> set[str]:
    """Every name the node refers to: bare, attribute and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_definition_is_named_in_the_library():
    # __init__.py only re-exports, so its imports are not callers.
    statements = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [(stmt, _names(stmt)) for _, stmt in statements]
    callerless = [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in uses if other is not stmt)
    ]
    assert not callerless, f"no caller in the library: {callerless}"


def test_all_is_what_the_tests_import():
    modules = {path.stem for path in SRC.glob("*.py")}
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "secrecy221":
                imported |= {alias.name for alias in node.names}
    assert sorted(secrecy221.__all__) == sorted(imported - modules)
