"""Which package modules each module imports, read from its source with ``ast``.

Relative and absolute imports count alike, at module level or inside a
function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "convres"


def package_imports(module: str, package: Path = PACKAGE) -> set:
    """The ``convres`` modules that ``<package>/<module>.py`` imports; the
    package itself counts as ``"__init__"``."""
    found = set()
    for node in ast.walk(ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "convres")
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level and path[0] != "convres":
                continue
            inner = path if node.level else path[1:]
            if inner and inner[0]:
                found.add(inner[0])
            else:
                # ``from . import x``: x may be a module or a name of the package
                found.add("__init__")
                found.update(alias.name for alias in node.names
                             if (package / f"{alias.name}.py").exists())
    return found


def test_the_reader_sees_relative_absolute_and_lazy_imports(tmp_path):
    (tmp_path / "algebra.py").write_text("")
    (tmp_path / "m.py").write_text(
        "import numpy\n"
        "from .errors import X\n"
        "from convres.groebner import Y\n"
        "import convres.oracle\n"
        "from . import algebra\n"
        "def f():\n"
        "    from .complexes import Z\n")
    assert package_imports("m", tmp_path) == {"errors", "groebner", "oracle", "__init__", "algebra",
                                    "complexes"}


def test_invariants_import_nothing_from_the_package():
    assert package_imports("invariants") == set()


def test_observability_does_not_import_complexes():
    # The spot check reads a Smith form of its own, so the oracle's row
    # reduction is not imported either.
    assert package_imports("observability") == {"algebra", "errors", "groebner"}
