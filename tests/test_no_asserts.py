"""Result guards in the package must survive ``python -O``.

``assert`` statements and ``raise AssertionError`` vanish or read as
programming errors; checks on computed results raise ``InvariantError``.
"""

import ast
from pathlib import Path

import convres

SOURCES = sorted(Path(convres.__file__).parent.glob("*.py"))


def _asserting_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_package_sources_are_found():
    assert {p.name for p in SOURCES} >= {"complexes.py", "groebner.py", "observability.py"}


def test_no_assert_statement_or_assertion_error_in_the_package():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _asserting_lines(ast.parse(path.read_text(), str(path)))]
    assert found == []
