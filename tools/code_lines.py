"""Count the code lines of Python sources: lines that hold code, leaving
out blank lines, comments and docstrings.

Usage: python tools/code_lines.py [DIR ...]   (default: src/fdsic)

Prints each module's count and the total of every directory.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token of code."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(dirs: list[str]) -> None:
    for directory in dirs or ["src/fdsic"]:
        total = 0
        for path in sorted(Path(directory).glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total of {directory}")


if __name__ == "__main__":
    main(sys.argv[1:])
