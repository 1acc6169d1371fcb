"""Code lines per Python file, not counting blanks, comments and docstrings.

A line counts when a token other than a comment or a docstring starts on
it or spans it: every line of a multi-line statement and of a multi-line
string that is not a docstring counts, a comment-only line does not. A
docstring is a string literal standing alone as the first statement of a
module, class or function. This is the count that ROADMAP.md and
CHANGES.md cite for the size of a module.

    python tools/code_lines.py src/gsgp/*.py

prints one line per file, `<lines> <path>`, and the total last. A
directory argument stands for the sorted `*.py` files directly in it, so
`python tools/code_lines.py src/gsgp` prints the same lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(source: str) -> set:
    """The line numbers that the docstrings of `source` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of `source` hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def _files(arg: str) -> list:
    """[arg] for a file, and the sorted `*.py` files directly in arg for a directory."""
    if not Path(arg).is_dir():
        return [arg]
    return sorted(str(path) for path in Path(arg).glob("*.py"))


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python tools/code_lines.py FILE.py|DIR ...", file=sys.stderr)
        return 2
    total = 0
    for path in [p for arg in paths for p in _files(arg)]:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
