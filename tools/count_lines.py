"""Count the code lines of a Python package: no blank, comment or docstring lines.

A line counts when it holds a token other than a comment, a newline or an
indentation change, and no docstring covers it. ``ast`` finds the docstrings
(the first statement of a module, class or function, when it is a string
constant); ``tokenize`` finds the lines that hold code. Stdlib only.

Usage: python3 tools/count_lines.py [PACKAGE_DIR]   (default: src/hyperfactor)
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the module's, classes' and functions' docstrings cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code outside docstrings."""
    with tokenize.open(path) as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/hyperfactor")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
