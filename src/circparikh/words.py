"""Linear words over ordered alphabets.

Words are plain Python strings of single-character symbols.  The ordered
alphabet carries the total order (the order in which symbols are listed,
not codepoint order) that fixes the shape of all Parikh data.

A "subword" throughout this package is a scattered subword: a subsequence
picked at strictly increasing positions.  Two occurrences are distinct
when they differ in at least one position.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

from .matrices import UnitriangularMatrix


def _record(cls):
    """`cls` as a frozen `slots=True` dataclass whose generated `__init__`
    stores each field through its slot descriptor.

    The records built per site, per edge and per necklace pay for their
    construction: a frozen dataclass's `__init__` makes one
    `object.__setattr__` call per field, which looks the slot up again by
    name.  Here `__init__` is generated once per class, as `dataclasses`
    generates its own, and calls each slot's bound `__set__`.  Fields take
    no defaults.  Field order, eq, hash, repr, `dataclasses.replace` and
    pickling are the dataclass's own; any assignment or deletion raises
    `FrozenInstanceError`, which on Python 3.11 a frozen slots dataclass
    raises only for a field name (any other name raises `TypeError`)."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    names = [field.name for field in dataclasses.fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


class Alphabet:
    """Totally ordered, non-empty set of distinct single-character symbols.

    Besides each symbol's rank it holds the translation tables below and
    the rewriting rule tables of a ternary alphabet once `rewriting` has
    compiled them; building one compiles nothing."""

    __slots__ = ("symbols", "_rank", "_foreign", "_sorted", "_to_sorted", "_rules")

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
        self._rank = {s: i for i, s in enumerate(syms)}
        # Translation tables: deleting the symbols leaves the foreign ones,
        # and mapping the i-th symbol to the i-th smallest in code-point order
        # makes string comparison follow the alphabet's order (empty when the
        # order is code-point order already).
        self._foreign = str.maketrans(dict.fromkeys(syms))
        self._sorted = "".join(sorted(syms))
        self._to_sorted = {ord(s): r for s, r in zip(syms, self._sorted) if s != r}
        self._rules = None

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
            return self._rank[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in alphabet {self}") from None

    def validate(self, word: str) -> None:
        """Reject a word with a foreign symbol, naming the first one."""
        foreign = word.translate(self._foreign)
        if foreign:
            raise ValueError(f"symbol {foreign[0]!r} is not in alphabet {self}")

    def __contains__(self, symbol):
        return symbol in self._rank

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


def _count_updates(patterns) -> dict:
    """The subword-count DPs of `patterns` held one after another on one
    flat list, a block of |pattern| + 1 entries each, whose entry j counts
    the placements of pattern[:j]: each letter x mapped to the (target,
    source) pairs that advance them all, j into j + 1 at each position j
    that holds x, in descending order so that `_read` reads entry j before
    the same letter has advanced it."""
    updates, offset = {}, 0
    for pattern in patterns:
        for j in range(len(pattern) - 1, -1, -1):
            updates.setdefault(pattern[j], []).append((offset + j + 1, offset + j))
        offset += len(pattern) + 1
    return updates


def _count(word: str, *patterns: str) -> list:
    """Occurrences of each of `patterns` as a scattered subword of `word`:
    one read of their `_count_updates` table, where a letter costs O(1)
    plus one step per position that holds it, not O(m) per pattern."""
    dp, ends = [], []
    for pattern in patterns:
        dp += [1] + [0] * len(pattern)
        ends.append(len(dp) - 1)
    _read(dp, _count_updates(patterns), word)
    return [dp[end] for end in ends]


def count_subword(word: str, pattern: str, alphabet: Alphabet | None = None) -> int:
    """Number of occurrences of `pattern` as a scattered subword of `word`.

    The empty pattern occurs exactly once in every word.  When an alphabet
    is supplied, both words are checked against it first.
    """
    if alphabet is not None:
        alphabet.validate(word)
        alphabet.validate(pattern)
    return _count(word, pattern)[0]


def parikh_vector(alphabet: Alphabet, word: str) -> tuple:
    """Per-symbol occurrence counts, in alphabet order."""
    alphabet.validate(word)
    return tuple(word.count(s) for s in alphabet.symbols)


def _program(pattern: str) -> tuple:
    """The elementary updates each letter makes to the generalized Parikh
    matrix M_v of the pattern v, held flat and row-major as (m+1)^2 ints.

    Returns (d, read, rotate) with d = m + 1.  M_v(x) is the identity plus
    a 1 at (k, k+1) for each position k of v that holds x.  `read` maps x
    to the (target, source) pairs of rows <- rows M_v(x): column k into
    column k+1 over rows 0..k, the only non-zero ones in column k of upper
    triangular rows, for k descending so that column k is read before the
    same letter has advanced it.  `rotate` maps x to (add, subtract), the
    pairs of rows <- M_v(x)^-1 rows M_v(x): those column operations, then,
    as left and right products commute, row k+1 out of row k for k
    descending.  Both skip entry (k, k+1), the count of x, which the pair
    leaves unchanged: the terms skipped are those that read the diagonal,
    so the updates conjugate the strictly upper part alone, and the
    identity is its own conjugate.
    """
    d = len(pattern) + 1
    read, rotate = {}, {}
    for k in range(d - 2, -1, -1):
        x = pattern[k]
        column = [(r * d + k + 1, r * d + k) for r in range(k + 1)]
        add, subtract = rotate.setdefault(x, ([], []))
        read.setdefault(x, []).extend(column)
        add.extend(column[:-1])
        subtract.extend((k * d + j, (k + 1) * d + j) for j in range(k + 2, d))
    return d, read, rotate


@functools.cache
def _ladder_kernel(s: int):
    """The rotation kernel of the s-letter ladder as one straight-line
    function (word, shifts, *letters) -> rows: the sum of the ladder's
    Parikh matrices of the first `shifts` cyclic shifts of the word, what
    `circular._rotation_sums` returns.  One shift gives M(word) itself,
    which `_parikh_rows` reads.  Built from `_ladder_source(s)` on first
    use and kept for the size, so a run pays once per alphabet size, not
    per call."""
    namespace = {}
    exec(_ladder_source(s), namespace)
    return namespace["kernel"]


def _ladder_source(s: int) -> str:
    """Source of `_ladder_kernel(s)`, a function of s alone: the letters
    are its arguments x0 .. x(s-1), never text in the source.  Entry i of
    the flat matrix and of the sums is the local m<i> and s<i>, for the
    strictly upper entries only, as the diagonal stays 1 (and shifts in
    the sums) and the rest 0.  One if/elif branch per letter, in the read
    and again in the rotation, applies the (target, source) pairs of
    `_program`'s `read` and `rotate` for that letter, in their order; a
    source on the diagonal is the constant 1."""
    d, read, rotate = _program("".join(map(chr, range(s))))
    diagonal = range(0, d * d, d + 1)
    upper = [i * d + j for i in range(d) for j in range(i + 1, d)]
    xs = [f"x{k}" for k in range(s)]
    src = [
        f"def kernel(word, shifts, {', '.join(xs)}):",
        f"    {' = '.join(f'm{i}' for i in upper)} = 0",
        "    for ch in word:",
    ]
    for k, x in enumerate(xs):
        src.append(f"        {'elif' if k else 'if'} ch == {x}:")
        src += [f"            m{t} += {1 if f in diagonal else f'm{f}'}" for t, f in read[chr(k)]]
    src += [f"    s{i} = shifts * m{i}" for i in upper]
    src.append("    for weight, ch in zip(range(shifts - 1, 0, -1), word):")
    for k, x in enumerate(xs):
        src.append(f"        {'elif' if k else 'if'} ch == {x}:")
        for pairs, op in zip(rotate[chr(k)], "+-"):
            for t, f in pairs:
                src += [f"            m{t} {op}= m{f}", f"            s{t} {op}= m{f} * weight"]
        if not any(rotate[chr(k)]):
            src.append("            pass")
    entries = ["shifts" if i in diagonal else f"s{i}" if i in upper else "0" for i in range(d * d)]
    rows = (f"[{', '.join(entries[i : i + d])}]" for i in range(0, d * d, d))
    src.append(f"    return [{', '.join(rows)}]")
    return "\n".join(src) + "\n"


def _read(flat: list, updates: dict, word: str) -> None:
    """Read `word` into the flat DP list `flat` in place: each letter adds
    entry s into entry t for each of its (t, s) pairs in `updates`, from
    `_count_updates` or the `read` of `_program` (then flat <- flat M_v(word)
    for flat upper triangular rows, as every M_v(u) is)."""
    for ch in word:
        for t, s in updates.get(ch, ()):
            flat[t] += flat[s]


def _identity(d: int) -> list:
    """The d x d identity, flat and row-major."""
    flat = [0] * (d * d)
    flat[:: d + 1] = [1] * d
    return flat


def _parikh_rows(alphabet: Alphabet, word: str):
    """The integer rows of M_v(word) for the ladder v = a_1 ... a_s: the
    rotation sums of `_ladder_kernel` over one shift, the word itself (the
    identity for λ).  The first call for an alphabet size generates that
    size's kernel, as the circular matrix does; `BENCH_one-ladder.json`
    times the generation at s = 4, 26 and 100."""
    alphabet.validate(word)
    return _ladder_kernel(alphabet.size)(word, 1, *alphabet.symbols)


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
    total = sum(_count(word, *map("".join, itertools.permutations(alphabet.symbols))))
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
    # |mirror(w)|_abc = |w|_cba: the left side is read with the rest.
    bc, ab, abc, cba = _count(word, b + c, a + b, a + b + c, c + b + a)
    return cba == na * nb * nc - na * bc - ab * nc + abc
