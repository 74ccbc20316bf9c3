"""Count code lines: lines that are not blank, not only comments and not
part of a docstring.

    python tools/code_lines.py src/gaugequad/*.py

Prints one `count path` line per file and a `count total` line.  A line is
counted once if any token other than a comment, a newline or indentation
starts on it or, for a multi-line string, spans it.  Module, class and
function docstrings are left out whole.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """Number of code lines in the Python source file at path."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, path)))


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/code_lines.py FILE...", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
