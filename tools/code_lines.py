"""Count the code lines of the package under ``src/``.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines and comment-only lines are not counted.  Run from anywhere:

    python3 tools/code_lines.py [PATH]

which prints the total for every ``*.py`` file under PATH, or for PATH
itself when it is a file (default: the ``src`` directory next to this
script's parent).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
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
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines of one Python file."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    print(sum(map(code_lines, paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
