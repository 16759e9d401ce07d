"""Count the code lines of Python and C sources: lines that hold code,
leaving out blank lines, comments and docstrings (Python) and blank lines
and /* */ and // comments (C).

Usage: python tools/code_lines.py [DIR ...]   (default: src/fdsic)

Prints each Python module's count and the total of every directory, then
the count of each C source and header (*.c, *.h) beside it and their total.
"""

import ast
import re
import sys
import tokenize
from pathlib import Path

# a C comment or a string or character literal, which may hold a comment's
# delimiters without opening one
_C_TOKEN = re.compile(r"""/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""",
                      re.S)
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


def c_code_lines(path: Path) -> int:
    """The number of lines of the C source ``path`` that hold code once its
    comments are taken out."""
    def strip(match: re.Match) -> str:
        token = match.group()
        return token if token[0] in "\"'" else "\n" * token.count("\n")
    return sum(1 for line in _C_TOKEN.sub(strip, path.read_text()).splitlines()
               if line.strip())


def main(dirs: list[str]) -> None:
    for directory in dirs or ["src/fdsic"]:
        total = 0
        for path in sorted(Path(directory).glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total of {directory}")
        sources = sorted([*Path(directory).glob("*.c"), *Path(directory).glob("*.h")])
        if sources:
            counts = [c_code_lines(path) for path in sources]
            for count, path in zip(counts, sources):
                print(f"{count:6d}  {path}")
            print(f"{sum(counts):6d}  C total of {directory}")


if __name__ == "__main__":
    main(sys.argv[1:])
