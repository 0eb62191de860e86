"""Counted lines of Python source, per file and per top-level def or class.

A line is counted when it holds code or part of a docstring (or any
other string): the lines each token spans, read with the standard
``tokenize`` module, less comments and blank lines.  Usage:

    python scripts/count_lines.py src/dcmg [more files or directories]

Each file prints its count and then the count of each of its top-level
functions and classes (decorators included); each argument prints its
total last.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def counted_lines(path: Path) -> set[int]:
    """Numbers of the lines of ``path`` that hold a counted token."""
    lines: set[int] = set()
    with path.open("rb") as src:
        for tok in tokenize.tokenize(src.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def top_level_spans(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level def and class."""
    tree = ast.parse(path.read_bytes(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    spans = []
    for node in tree.body:
        if isinstance(node, defs):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.append((node.name, first, node.end_lineno))
    return spans


def report(path: Path) -> int:
    """Print the counts of one file and return its total.  A file that is
    not Python source raises ``ValueError`` naming it, before anything of
    it is printed."""
    try:
        spans = top_level_spans(path)
        lines = counted_lines(path)
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"{path} is not Python source: {exc}") from None
    print(f"{len(lines):6d}  {path}")
    for name, first, last in spans:
        print(f"{sum(first <= k <= last for k in lines):6d}    {name}")
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for arg in argv:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = sum(report(path) for path in files)
        print(f"{total:6d}  total {root}")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone (``| head``): as the Python docs advise, point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except (OSError, ValueError) as exc:  # a path missing, unreadable or not Python
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
