#!/usr/bin/env python3
"""Count the lines of Python source that hold code.

    python3 scripts/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory, searched recursively for .py
files. A line holds code when some token other than a comment starts or
runs on it, outside the docstrings of modules, classes and functions:
blank lines, comment lines and docstring lines are left out, and every
line of a call or literal split over several lines counts. The script
prints one line per file, `COUNT PATH`, in path order, then `COUNT total`.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of the source's lines that hold code (module docstring)."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def python_files(paths: list[Path]) -> list[Path]:
    files: set[Path] = set()
    for path in paths:
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of Python source that hold code.")
    parser.add_argument("paths", nargs="+", type=Path, help=".py files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
