"""Exact unitriangular matrix algebra over arbitrary-precision rationals.

Every matrix here is square, upper triangular and has units on the main
diagonal.  These matrices form a group under multiplication (determinant
1, so the inverse is again of the same shape) and carry all Parikh data
computed elsewhere in the package.  No floating point is used anywhere.

A matrix is stored as integer rows over one positive denominator q: the
rows hold q on the diagonal, 0 below it and q times each entry above it,
reduced so that q and the rows have gcd 1.  A linear Parikh matrix has
q = 1 and a circular one divides |w|, as the circular matrix is the sum
of the |w| rotations' linear matrices over |w|.  Products run on the
integer rows, (A/p)(B/q) = AB/(pq), through the one generated triangular
product `_tri_mul`; the text forms print each entry from its integer
through `_rational_text`, built on the first print and kept.  Entries are
read as `fractions.Fraction` only through `rows`, built on its first read.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# json.dumps builds a new encoder per call when given sort_keys.
_JSON = json.JSONEncoder(sort_keys=True)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; rejects decimals and floats."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def _entry(e) -> int | Fraction:
    """A matrix entry, an int or a Fraction, from an int, a Fraction or a
    rational literal."""
    # Exact types only: a bool is no entry, and a float, a Decimal or a
    # decimal literal is no exact rational literal.
    if type(e) is int or type(e) is Fraction:
        return e
    return parse_rational(e)


def _rational_text(e: int, q: int) -> str:
    """The text of the rational e/q, q > 0, as `str(Fraction(e, q))` gives
    it ("p" or "p/q" in lowest terms), without building the Fraction."""
    g = math.gcd(e, q)
    return str(e // g) if g == q else f"{e // g}/{q // g}"


def _key(sums, q: int, text) -> str:
    """The class key of the matrix sums / q: its strictly-upper entries,
    row-major, each as `text(e, q)` gives it (`_rational_text` or a cache
    of it), comma-joined."""
    return ",".join([text(e, q) for i, row in enumerate(sums) for e in row[i + 1 :]])


def _tri_mul(a, b) -> tuple:
    """Product of two upper triangular matrices given as rows, through the
    straight-line `_tri_kernel` of their dimension, generated on first use.

    Entry (i, j), i <= j, is one sum of the products a[i][k] b[k][j] over
    k in [i, j], the only terms of triangular factors that can be non-zero;
    below the diagonal the product keeps a's own entries (a's zeros, of
    a's entry type).  No loop runs and no entry is indexed: the kernel
    unpacks both factors into locals.  The package hands it integer rows
    only."""
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
    """Immutable upper-triangular rational matrix with unit diagonal.

    Built from rows of ints, Fractions or rational literals; `rows` reads
    the entries back as tuples of Fractions.  Assigning or deleting any
    attribute raises AttributeError."""

    __slots__ = ("_sums", "_q", "_rows", "_cells")

    def __new__(cls, rows):
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
        q = math.lcm(*(e.denominator for row in rows for e in row))
        sums = [[e.numerator * (q // e.denominator) for e in row] for row in rows]
        return cls._from_sums(sums, q)

    @classmethod
    def _from_sums(cls, sums, q: int) -> "UnitriangularMatrix":
        """The matrix sums / q, from integer rows with q > 0 on the diagonal
        and 0 below it, stored divided by the gcd of q and the rows."""
        g = math.gcd(*itertools.chain.from_iterable(sums))  # the diagonal holds q
        if g != 1:
            q //= g
            sums = [[e // g for e in row] for row in sums]
        matrix = object.__new__(cls)
        _set_sums(matrix, tuple(map(tuple, sums)))
        _set_q(matrix, q)
        _set_rows(matrix, None)
        _set_cells(matrix, None)
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "UnitriangularMatrix":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self._sums)

    @property
    def rows(self) -> tuple:
        """The entries as tuples of `fractions.Fraction`, one per row."""
        rows = self._rows
        if rows is None:
            q = self._q
            rows = tuple(tuple(Fraction(e, q) for e in row) for row in self._sums)
            _set_rows(self, rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: UnitriangularMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: UnitriangularMatrix is immutable")

    # copy and pickle would otherwise restore the slots through __setattr__.
    def __reduce__(self):
        return UnitriangularMatrix._from_sums, (self._sums, self._q)

    def __mul__(self, other):
        if not isinstance(other, UnitriangularMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self._from_sums(_tri_mul(self._sums, other._sums), self._q * other._q)

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
        """Exact inverse; always exists and is again unitriangular.

        For M = A/q, entry (i, j) of M^-1 has a denominator dividing
        q^(j-i), so top = q^(d-1) times it is an integer, and the recurrence
        inv(i, j) = -sum inv(i, k) M(k, j) over k in [i, j) holds for those
        integers with one exact division by q."""
        d, q, a = self.dim, self._q, self._sums
        top = q ** (d - 1)
        inv = [[top if i == j else 0 for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                inv[i][j] = -sum(inv[i][k] * a[k][j] for k in range(i, j)) // q
        return self._from_sums(inv, top)

    def alternate(self) -> "UnitriangularMatrix":
        """Checkerboard sign flip: entry (i,j) becomes (-1)^(i+j) times itself."""
        return self._from_sums(_alternating(self._sums), self._q)

    def _texts(self) -> list:
        """The entries' texts, row by row: "1" on the diagonal, "0" below.
        Built on the first call and kept, as `rows` is, so a matrix printed
        both as text and as JSON builds them once; no caller mutates them."""
        cells = self._cells
        if cells is None:
            q = self._q
            cells = [
                ["0"] * i + ["1"] + [_rational_text(e, q) for e in row[i + 1 :]]
                for i, row in enumerate(self._sums)
            ]
            _set_cells(self, cells)
        return cells

    def key(self) -> str:
        """Canonical text key, `_key` of the entries: two matrices have the
        same key exactly when they are equal."""
        return _key(self._sums, self._q, _rational_text)

    def to_json(self) -> str:
        return _JSON.encode({"dim": self.dim, "entries": self._texts()})

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
        cells = self._texts()
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join([" ".join(map(str.rjust, row, widths)) for row in cells])

    def __eq__(self, other):
        if not isinstance(other, UnitriangularMatrix):
            return NotImplemented
        return self._q == other._q and self._sums == other._sums

    def __hash__(self):
        return hash((self._q, self._sums))

    def __repr__(self):
        return f"UnitriangularMatrix({self._texts()})"


# The slots' own setters, which `__setattr__` leaves to the class alone.
_set_sums = UnitriangularMatrix._sums.__set__
_set_q = UnitriangularMatrix._q.__set__
_set_rows = UnitriangularMatrix._rows.__set__
_set_cells = UnitriangularMatrix._cells.__set__
