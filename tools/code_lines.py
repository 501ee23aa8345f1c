"""Count the code lines of Python sources.

A code line holds at least one token that is neither a comment nor a
docstring; blank lines do not count.  A docstring is a string literal
that makes up a whole statement, the way a module, class or function
docstring does.  A line that only continues a multi-line docstring does
not count, and every line of any other multi-line token does.

    python tools/code_lines.py src/convres

prints the total over every ``.py`` file under the given files and
directories.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines: set = set()
    statement: list = []
    tokens = tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__)
    for tok in tokens:
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def count(paths) -> int:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


if __name__ == "__main__":
    print(count(sys.argv[1:] or ["src/convres"]))
