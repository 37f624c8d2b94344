"""Exact unitriangular matrix algebra over arbitrary-precision rationals.

Every matrix here is square, upper triangular, has units on the main
diagonal and `fractions.Fraction` entries.  These matrices form a group
under multiplication (determinant 1, so the inverse is again of the same
shape) and carry all Parikh data computed elsewhere in the package.  No
floating point is used anywhere.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; rejects decimals and floats."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def _entry(e) -> Fraction:
    """A matrix entry from an int, a Fraction or a rational literal."""
    # Exact types only: a bool is no entry, and a float, a Decimal or a
    # decimal literal is no exact rational literal.
    if type(e) is int or type(e) is Fraction:
        return Fraction(e)
    return parse_rational(e)


def _tri_mul(a, b) -> tuple:
    """Product of two upper triangular matrices given as rows, through the
    straight-line `_tri_kernel` of their dimension, generated on first use.

    Entry (i, j), i <= j, is one sum of the products a[i][k] b[k][j] over
    k in [i, j], the only terms of triangular factors that can be non-zero;
    below the diagonal the product keeps a's own entries (a's zeros, of
    a's entry type).  No loop runs and no entry is indexed: the kernel
    unpacks both factors into locals, and works alike on int and Fraction
    entries."""
    return _tri_kernel(len(a))(a, b)


@functools.cache
def _tri_kernel(d: int):
    """The d x d triangular product of `_tri_mul` as one generated
    function, built once per dimension on first use: its source holds
    d (d + 1) (d + 2) / 6 products, O(d^3), which the verify suites keep
    to d <= 4."""
    namespace = {}
    exec(_tri_source(d), namespace)
    return namespace["product"]


def _tri_source(d: int) -> str:
    """Source of `_tri_kernel(d)`: entry (i, j) of a is the local a<i>_<j>,
    and of b b<i>_<j>.  Nested list targets unpack the rows, so d = 1
    unpacks [[a0_0]] (not the row itself) and d = 0 nothing; each entry and
    row ends in a comma, so a one-entry row is a tuple too."""

    def rows(name):
        return "[" + ", ".join(
            "[" + ", ".join(f"{name}{i}_{j}" for j in range(d)) + "]" for i in range(d)
        ) + "]"

    def entry(i, j):
        if j < i:
            return f"a{i}_{j}"
        return " + ".join(f"a{i}_{k} * b{k}_{j}" for k in range(i, j + 1))

    product = "".join(
        "(" + "".join(f"{entry(i, j)}, " for j in range(d)) + "), " for i in range(d)
    )
    return f"def product(a, b):\n    {rows('a')} = a\n    {rows('b')} = b\n    return ({product})\n"


def _alternating(rows) -> tuple:
    """The checkerboard sign flip of `alternate`, on rows of any entry type."""
    return tuple(
        tuple(entry if (i + j) % 2 == 0 else -entry for j, entry in enumerate(row))
        for i, row in enumerate(rows)
    )


class UnitriangularMatrix:
    """Immutable upper-triangular rational matrix with unit diagonal."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(map(_entry, row)) for row in rows)
        dim = len(rows)
        if dim < 2:
            raise ValueError(f"matrix dimension must be at least 2, got {dim}")
        for i, row in enumerate(rows):
            if len(row) != dim:
                raise ValueError(f"row {i} has length {len(row)}, expected {dim}")
            if row[i] != 1:
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is {row[i]}, not 1")
            for j in range(i):
                if row[j] != 0:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) below the diagonal is {row[j]}, not 0"
                    )
        self.dim = dim
        self.rows = rows

    @classmethod
    def _trusted(cls, rows) -> "UnitriangularMatrix":
        """Wrap tuple rows of Fractions already known to be unitriangular."""
        matrix = object.__new__(cls)
        matrix.dim = len(rows)
        matrix.rows = rows
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "UnitriangularMatrix":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def __mul__(self, other):
        if not isinstance(other, UnitriangularMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self._trusted(_tri_mul(self.rows, other.rows))

    def __pow__(self, exponent: int) -> "UnitriangularMatrix":
        """Exact power by repeated squaring; exponent must be >= 0."""
        # bool is an int subclass; True is not an exponent
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError(f"exponent must be an integer, got {exponent!r}")
        if exponent < 0:
            raise ValueError("negative powers are not defined here; use inverse()")
        # Start from the base at the lowest set bit: no product with I.
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self.identity(self.dim) if result is None else result

    def inverse(self) -> "UnitriangularMatrix":
        """Exact inverse; always exists and is again unitriangular."""
        d = self.dim
        a = self.rows
        inv = [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                inv[i][j] = -sum(inv[i][k] * a[k][j] for k in range(i, j))
        return self._trusted(tuple(map(tuple, inv)))

    def alternate(self) -> "UnitriangularMatrix":
        """Checkerboard sign flip: entry (i,j) becomes (-1)^(i+j) times itself."""
        return self._trusted(_alternating(self.rows))

    def key(self) -> str:
        """Canonical text key: strictly-upper entries, row-major, comma-joined.

        Two matrices have the same key exactly when they are equal.
        """
        d = self.dim
        return ",".join(str(self.rows[i][j]) for i in range(d) for j in range(i + 1, d))

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "entries": [[str(e) for e in row] for row in self.rows]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "UnitriangularMatrix":
        data = json.loads(text)
        if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
            raise ValueError('matrix JSON must be {"dim": n, "entries": [[...]]}')
        dim = data["dim"]
        entries = data["entries"]
        # bool is an int subclass; JSON true/false are not dimensions
        if type(dim) is not int:
            raise ValueError(f"matrix JSON dim must be an integer, got {dim!r}")
        if not isinstance(entries, list):
            raise ValueError(
                f"matrix JSON entries must be a list of rows, got {type(entries).__name__}"
            )
        if len(entries) != dim:
            raise ValueError(f"expected {dim} rows, got {len(entries)}")
        for row in entries:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(f"expected rows of length {dim}")
        return cls(entries)

    def pretty(self) -> str:
        """Aligned text grid, one matrix row per line."""
        cells = [[str(e) for e in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            " ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) for row in cells
        )

    def __eq__(self, other):
        if not isinstance(other, UnitriangularMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.dim, self.rows))

    def __repr__(self):
        return f"UnitriangularMatrix({[[str(e) for e in row] for row in self.rows]})"
