#!/usr/bin/env python3
"""Count the code lines of each module under a source tree.

    python scripts/code_lines.py [SRC]

A code line is a line that holds part of a token other than a comment, a
newline, an indent or a docstring. Docstrings are the string expressions
that open a module, class or function body, found with `ast`; the other
tokens come from `tokenize`, so a multi-line string or bracket counts every
line it spans. Prints one line per module, then the total. SRC defaults to
the package's `src/` directory.
"""

import argparse
import ast
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python file."""
    docstrings = _docstring_lines(ast.parse(path.read_text(encoding="utf-8")))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("src", nargs="?", type=Path, default=default)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(args.src)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
