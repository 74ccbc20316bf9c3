"""Count code lines: lines that are not blank, not only comments and not
part of a docstring.

    python tools/code_lines.py src/gaugequad/*.py
    python tools/code_lines.py --base HEAD~1 src/gaugequad/*.py

Prints one `count path` line per file and a `count total` line.  With
--base REV each line reads `count count_at_REV delta path`, where a path's
count at REV is read with `git show REV:path` and is 0 if the path is
absent there, and the total line gives the total delta.  A line is counted
once if any token other than a comment, a newline or indentation
starts on it or, for a multi-line string, spans it.  Module, class and
function docstrings are left out whole.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def count_source(source: bytes, path: str) -> int:
    """Number of code lines in the Python source text `source`."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, path)))


def code_lines(path: str) -> int:
    """Number of code lines in the Python source file at path."""
    with open(path, "rb") as fh:
        return count_source(fh.read(), path)


def _git(args: list[str], path: str) -> subprocess.CompletedProcess:
    """git args, run in the folder of path, output captured."""
    folder = os.path.dirname(os.path.abspath(path))
    return subprocess.run(["git", *args], cwd=folder, capture_output=True)


def code_lines_at(rev: str, path: str) -> int:
    """Number of code lines in path as committed at rev, 0 if absent there."""
    shown = _git(["show", f"{rev}:./{os.path.basename(path)}"], path)
    return count_source(shown.stdout, path) if shown.returncode == 0 else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines.")
    parser.add_argument("--base", metavar="REV", help="also count each path at this git revision")
    parser.add_argument("paths", nargs="+", metavar="FILE")
    ns = parser.parse_args(argv)
    names = [*ns.paths, "total"]
    now = [code_lines(path) for path in ns.paths]
    now.append(sum(now))
    if not ns.base:
        for n, name in zip(now, names):
            print(f"{n:6d} {name}")
        return 0
    if _git(["rev-parse", "--verify", "-q", f"{ns.base}^{{commit}}"], ns.paths[0]).returncode:
        print(f"error: {ns.base} is not a commit", file=sys.stderr)
        return 1
    then = [code_lines_at(ns.base, path) for path in ns.paths]
    then.append(sum(then))
    for n, b, name in zip(now, then, names):
        print(f"{n:6d} {b:6d} {n - b:+6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
