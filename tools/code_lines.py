"""Print each module's code lines and physical lines, and their totals.

    python3 tools/code_lines.py [DIR]    # DIR defaults to src/tdlab

A code line is a line that holds part of a token other than a comment,
outside every docstring: blank lines, comment lines and the docstrings of
modules, classes and functions (found with ``ast``) do not count.  A
physical line is any line of the file.  One row per ``*.py`` file in DIR, in
name order, then ``total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding part of a non-comment token, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "tdlab", help="default src/tdlab")
    args = parser.parse_args(argv)
    rows = []
    for path in sorted(args.dir.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, code_lines(source), len(source.splitlines())))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'physical':>8}")
    for name, code, physical in rows:
        print(f"{name:<{width}}  {code:>6}  {physical:>8}")


if __name__ == "__main__":
    main()
