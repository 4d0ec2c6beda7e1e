"""Count the code lines of Python modules: no blanks, comments or docstrings.

A line counts when a token other than a comment, a line break or an
indentation change lies on it. A docstring (a string literal that is the
first statement of a module, class or function) is not code, so its lines
do not count unless code shares them. A multi-line string that is not a
docstring counts on every line it spans.

Run it from any directory::

    python3 tools/count_code_lines.py

It prints one ``<lines> <path>`` row per module under the tree's ``src/``,
sorted by path relative to the tree's root, and then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Lines of ``source`` that hold code."""
    docstrings = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NON_CODE:
            continue
        spanned = range(token.start[0], token.end[0] + 1)
        code.update(line for line in spanned if line not in docstrings)
    return len(code)


def main() -> int:
    total = 0
    for file in sorted((REPO / "src").rglob("*.py")):
        lines = count_code_lines(file.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d} {file.relative_to(REPO)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
