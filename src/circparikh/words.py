"""Linear words over ordered alphabets.

Words are plain Python strings of single-character symbols.  The ordered
alphabet carries the total order (the order in which symbols are listed,
not codepoint order) that fixes the shape of all Parikh data.

A "subword" throughout this package is a scattered subword: a subsequence
picked at strictly increasing positions.  Two occurrences are distinct
when they differ in at least one position.
"""

from __future__ import annotations

import itertools
import math

from .matrices import UnitriangularMatrix


class Alphabet:
    """Totally ordered, non-empty set of distinct single-character symbols."""

    __slots__ = ("symbols", "_ladder", "_foreign", "_sorted", "_to_sorted")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must not be empty")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError(f"alphabet symbols must be distinct: {','.join(syms)}")
        self.symbols = syms
        # The ladder a_1 ... a_s as `_positions` gives it: each symbol's rank.
        self._ladder = {s: [i] for i, s in enumerate(syms)}
        # Translation tables: deleting the symbols leaves the foreign ones,
        # and mapping the i-th symbol to the i-th smallest in code-point order
        # makes string comparison follow the alphabet's order (empty when the
        # order is code-point order already).
        self._foreign = str.maketrans(dict.fromkeys(syms))
        self._sorted = "".join(sorted(syms))
        self._to_sorted = {ord(s): r for s, r in zip(syms, self._sorted) if s != r}

    @classmethod
    def parse(cls, spec: str) -> "Alphabet":
        """Build from "a,b,c" (comma-separated) or "abc" (run of characters)."""
        tokens = spec.split(",") if "," in spec else list(spec)
        return cls(tokens)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._ladder[symbol][0]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in alphabet {self}") from None

    def validate(self, word: str) -> None:
        """Reject a word with a foreign symbol, naming the first one."""
        foreign = word.translate(self._foreign)
        if foreign:
            raise ValueError(f"symbol {foreign[0]!r} is not in alphabet {self}")

    def __contains__(self, symbol):
        return symbol in self._ladder

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __str__(self):
        return ",".join(self.symbols)

    def __repr__(self):
        return f"Alphabet({','.join(self.symbols)!r})"


def mirror(word: str) -> str:
    """The reversed word."""
    return word[::-1]


def _positions(pattern: str) -> dict:
    """Each letter of `pattern` mapped to the positions that hold it, in
    descending order, so that a step from position k to k + 1 reads k
    before the same letter has advanced it."""
    positions = {}
    for k in range(len(pattern) - 1, -1, -1):
        positions.setdefault(pattern[k], []).append(k)
    return positions


def _count(word: str, pattern: str) -> int:
    """Occurrences of `pattern` as a scattered subword of `word`.

    dp[j] counts the placements of pattern[:j] in the prefix read so far;
    reading a letter advances only the pattern positions that hold it, so
    a letter costs O(1) plus one step per such position, not O(m).
    """
    m = len(pattern)
    if m == 0:
        return 1
    if m == 1:
        return word.count(pattern)
    positions = _positions(pattern)
    dp = [1] + [0] * m
    for ch in word:
        for j in positions.get(ch, ()):
            dp[j + 1] += dp[j]
    return dp[m]


def count_subword(word: str, pattern: str, alphabet: Alphabet | None = None) -> int:
    """Number of occurrences of `pattern` as a scattered subword of `word`.

    The empty pattern occurs exactly once in every word.  When an alphabet
    is supplied, both words are checked against it first.
    """
    if alphabet is not None:
        alphabet.validate(word)
        alphabet.validate(pattern)
    return _count(word, pattern)


def parikh_vector(alphabet: Alphabet, word: str) -> tuple:
    """Per-symbol occurrence counts, in alphabet order."""
    alphabet.validate(word)
    return tuple(word.count(s) for s in alphabet.symbols)


def _read(rows, positions: dict, word: str) -> None:
    """rows <- rows M_v(word) in place, for the pattern v given by its
    `_positions` and upper triangular rows (as every M_v(u) is).

    M_v(x) is the identity plus a 1 at (k, k+1) for each position k of v
    that holds x, so reading x adds column k into column k+1, where only
    rows 0..k are non-zero; descending positions read column k before the
    same letter has advanced it.
    """
    for ch in word:
        for k in positions.get(ch, ()):
            for row in rows[: k + 1]:
                row[k + 1] += row[k]


def _identity(d: int) -> list:
    rows = [[0] * d for _ in range(d)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _parikh_rows(alphabet: Alphabet, word: str):
    """The integer rows of M_v(word) for the ladder v = a_1 ... a_s."""
    alphabet.validate(word)
    rows = _identity(alphabet.size + 1)
    _read(rows, alphabet._ladder, word)
    return rows


def parikh_matrix(alphabet: Alphabet, word: str) -> UnitriangularMatrix:
    """The (s+1)x(s+1) matrix whose (i, j+1) entry counts the ladder subword
    a_i a_{i+1} ... a_j of consecutive alphabet symbols.

    The map is a morphism: the matrix of a concatenation is the product of
    the factors' matrices.  The second diagonal is the Parikh vector.
    """
    return UnitriangularMatrix(_parikh_rows(alphabet, word))


def project(alphabet: Alphabet, word: str, keep) -> str:
    """Erase the symbols outside `keep`, preserving the order of the rest."""
    keep_set = frozenset(keep)
    foreign = keep_set - set(alphabet.symbols)
    if foreign:
        raise ValueError(
            f"symbols {sorted(foreign)!r} are not a subset of alphabet {alphabet}"
        )
    alphabet.validate(word)
    return "".join(ch for ch in word if ch in keep_set)


def permutation_identity_check(alphabet: Alphabet, word: str) -> bool:
    """Check that the subword counts of the s! permutations of the full
    alphabet sum to the product of the single-letter counts."""
    alphabet.validate(word)
    total = sum(
        _count(word, "".join(p)) for p in itertools.permutations(alphabet.symbols)
    )
    return total == math.prod(word.count(s) for s in alphabet.symbols)


def inverse_identity_check(alphabet: Alphabet, word: str) -> bool:
    """Ternary-only identity relating the reversed word's abc-count to the
    counts of the word itself:

        |mirror(w)|_abc = |w|_a |w|_b |w|_c - |w|_a |w|_bc - |w|_ab |w|_c + |w|_abc
    """
    if alphabet.size != 3:
        raise ValueError(f"requires a ternary alphabet, got size {alphabet.size}")
    alphabet.validate(word)
    a, b, c = alphabet.symbols
    na, nb, nc = word.count(a), word.count(b), word.count(c)
    rhs = (
        na * nb * nc
        - na * _count(word, b + c)
        - _count(word, a + b) * nc
        + _count(word, a + b + c)
    )
    return _count(mirror(word), a + b + c) == rhs
