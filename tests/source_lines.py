"""Raw and code line counts of the package's source files.

A raw line is any line of the file.  A code line holds a token other than
a comment, a newline or a docstring (the leading string of a module, class
or function); blank lines, comment lines and docstring lines are not code.

    python tests/source_lines.py [DIR]

prints `raw code name` for each `*.py` file of DIR (`src/circparikh` by
default), sorted by name, and then the totals.

    python tests/source_lines.py [DIR] --against BASE

prints, for each `*.py` file of either directory, BASE's raw and code
lines, DIR's, and DIR's minus BASE's (a missing file counts 0), and then
the totals: the net line change of this tree against another checkout,
as in `--against ../parent/src/circparikh`.  Standard library only.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circparikh"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstrings(tree) -> list:
    """The (start, end) positions, as (line, column), of the docstrings in
    a parsed module."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                start = first.lineno, first.col_offset
                spans.append((start, (first.end_lineno, first.end_col_offset)))
    return spans


def counts(source: str) -> tuple:
    """(raw lines, code lines) of Python source text."""
    docstrings = _docstrings(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        in_docstring = any(a <= token.start and token.end <= b for a, b in docstrings)
        if token.type not in _NOT_CODE and not in_docstring:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def tally(root) -> dict:
    """name -> (raw lines, code lines) for each `*.py` file of root."""
    return {path.name: counts(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}


def _line(values, name: str) -> str:
    """The values in columns of 6, the 5th and 6th (the deltas) signed."""
    return " ".join([f"{v:+6}" if i >= 4 else f"{v:6}" for i, v in enumerate(values)] + [name])


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="source_lines.py")
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--against", type=Path, metavar="BASE")
    args = parser.parse_args(argv[1:])
    rows = tree = tally(args.dir)
    if args.against is not None:
        base = tally(args.against)
        rows = {}
        for name in tree.keys() | base.keys():
            (raw0, code0), (raw, code) = base.get(name, (0, 0)), tree.get(name, (0, 0))
            rows[name] = raw0, code0, raw, code, raw - raw0, code - code0
        print(" ".join(f"{word:>6}" for word in ("base", "base", "tree", "tree", "delta", "delta")))
        print(" ".join(f"{word:>6}" for word in ("raw", "code") * 3), "name")
    for name in sorted(rows):
        print(_line(rows[name], name))
    print(_line([sum(column) for column in zip(*rows.values())], "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
