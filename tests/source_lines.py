"""Raw and code line counts of the package's source files.

A raw line is any line of the file.  A code line holds a token other than
a comment, a newline or a docstring (the leading string of a module, class
or function); blank lines, comment lines and docstring lines are not code.

    python tests/source_lines.py [DIR]

prints `raw code name` for each `*.py` file of DIR (`src/circparikh` by
default), sorted by name, and then the totals.  Standard library only.
"""

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


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_raw = total_code = 0
    for path in sorted(root.glob("*.py")):
        raw, code = counts(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{raw:6} {code:6} {path.name}")
    print(f"{total_raw:6} {total_code:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
