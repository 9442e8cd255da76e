"""Count the code lines of Python sources.

Usage, from the repository root::

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, whose ``.py`` files are read
recursively in sorted order; the default is ``src/leantrie``.  A code line
is a line that holds a token other than a comment.  Blank lines, comment
lines and module, class and function docstrings are left out; every line
of a statement that spans lines counts, a multi-line string included.
Prints one line per file, ``lines  path``, then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PATHS = ("src/leantrie",)
# tokens that hold no code: layout, comments and the stream's ends
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers of ``source``'s module, class and function
    docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """How many lines of ``source`` hold a token other than a comment,
    docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths):
    """The ``.py`` files of ``paths``, each directory's in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS, metavar="PATH")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
