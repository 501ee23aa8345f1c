"""``tools/code_lines.py``, the code-line count the ROADMAP's size gates use."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """Docstring."""
    # a comment line

    text = """a string
that spans lines"""
    return (x +
            1)


class C:
    """Docstring."""
    value = f(1)
'''


def test_counts_code_lines_without_docstrings_comments_and_blanks():
    # import, def, the two lines of the assigned string, the two lines of
    # the return, class and the assignment.
    assert code_lines.code_lines(SAMPLE) == 8


def test_counts_every_file_under_a_directory(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.count([tmp_path / "pkg"]) == 9
    assert code_lines.count([tmp_path / "pkg" / "b.py"]) == 1
