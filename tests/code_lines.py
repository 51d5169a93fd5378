"""Count the code lines of the library, one module at a time.

A code line is a physical line that holds a token, other than a comment or
the docstring of a module, class or function.  Blank lines, comment lines
and docstring lines are not counted; a line of code with a trailing comment
is, and so is every line of a string that is not a docstring.  Only the
standard library is needed:

    python tests/code_lines.py [PATH ...]

prints the count of each ``*.py`` file under the given files or directories
(default: ``src/``) and their total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = sorted(
        f for p in map(Path, paths or [SRC]) for f in ([p] if p.is_file() else p.rglob("*.py"))
    )
    counts = {f: code_lines(f.read_text()) for f in files}
    names = {f: os.path.relpath(f) for f in files}
    width = max(map(len, names.values()), default=0)
    for f, n in counts.items():
        print(f"{names[f]:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
