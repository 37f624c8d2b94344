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

    Besides each symbol's rank it holds the translation tables below."""

    __slots__ = ("symbols", "_rank", "_foreign", "_sorted", "_to_sorted")

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


def _table(patterns, max_len: int) -> tuple:
    """The subword-count DPs of `patterns`, for words of length at most
    `max_len`, packed into one integer: (root, masks, width).

    Each pattern has a block of |pattern| + 1 lanes, one after another
    from the low end, and lane j of a block counts the placements of
    pattern[:j] in the word read so far.  Each lane is `width` bits wide,
    the bit length of C(max_len, min(m, max_len // 2)) for the longest
    pattern length m: no count of a prefix of length j <= m in a word of
    length <= max_len exceeds it, so a lane never carries into the next.
    root is the state of λ, 1 in lane 0 of each block, and masks maps
    each letter x to the lanes j < |pattern| whose position holds x.  A
    letter x advances every such j into j + 1 at once, `state += (state &
    masks[x]) << width` (`_read`): all of them read lane j as it was
    before x, as the textbook DP's update in descending j does.  A block's
    last lane is in no mask, so nothing crosses into the next block.  For
    the suffixes v[i:] of a pattern v, block i is row i of M_v from its
    diagonal on, as entry (i, j) of M_v(w) counts the factor v[i:j] in w."""
    m = max(map(len, patterns), default=0)
    width = math.comb(max_len, min(m, max_len // 2)).bit_length()
    full = (1 << width) - 1
    root, masks, lane = 0, {}, 0
    for pattern in patterns:
        root |= 1 << lane * width
        for x in pattern:
            masks[x] = masks.get(x, 0) | full << lane * width
            lane += 1
        lane += 1
    return root, masks, width


def _counter(patterns, width: int):
    """The function from a `_table` state of `patterns` to the count of each
    pattern: the last lane of each pattern's block."""
    full = (1 << width) - 1
    ends = [(end - 1) * width for end in itertools.accumulate(len(p) + 1 for p in patterns)]
    return lambda state: [state >> end & full for end in ends]


def _count(word: str, *patterns: str) -> list:
    """Occurrences of each of `patterns` as a scattered subword of `word`:
    one read of their `_table`, O(1) integer operations per letter on a
    state of sum(|p| + 1) lanes, whatever the number of patterns."""
    state, masks, width = _table(patterns, len(word))
    return _counter(patterns, width)(_read(state, masks, width, word))


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


@functools.cache
def _rotation_kernel(m: int, entries: tuple | None = None):
    """The rotation kernel of the patterns of length m as one straight-line
    function (word, shifts, *letters) of the pattern's letters.  For the
    ladder (entries None, distinct letters) it returns the rows, as tuples
    that callers keep as built, of the sum of M_v over the first `shifts`
    cyclic shifts of the word, what `circular._rotation_sums` returns; one
    shift gives M_v(word) itself, which `_parikh_rows` reads.  For a
    pattern it returns the flat `entries` of that sum added up into one
    integer, each as often as it is listed.  Built from
    `_kernel_source(m, entries)` on first use and kept for the pair, so a
    run pays once per pattern length (alphabet size for the ladder) and
    entries, not per call or per pattern."""
    namespace = {}
    exec(_kernel_source(m, entries), namespace)
    return namespace["kernel"]


def _kernel_source(m: int, entries: tuple | None) -> str:
    """Source of `_rotation_kernel(m, entries)`, a function of m and the
    entries alone: the letters are its arguments p0 .. p(m-1), never text
    in the source, and O(m^2) lines, built in O(m^2).

    Entry i of the flat M_v is the local m<i>, for the strictly upper
    entries only, as the diagonal stays 1 and the rest 0.  The read adds
    column k into column k + 1 over rows 0..k for each position k that
    holds the letter, k descending, with the diagonal source the constant
    1: M_v(u x) = M_v(u) M_v(x).  Rotating the front letter x to the back
    is the conjugation M_v(u x) = M_v(x)^-1 M_v(x u) M_v(x): per position
    k that holds x, k descending, the same column updates, then row k + 1
    out of row k.  As left and right products commute, and each side's
    updates run k descending, that is the whole product.  Both skip entry
    (k, k+1), the count of x, which the pair leaves unchanged: the terms
    skipped are those that read the diagonal, so the updates conjugate
    the strictly upper part alone.

    The summed entries (every strictly upper one, s<i>, for the ladder;
    the total of the listed ones for a pattern) start at shifts times
    M_v(word), and a change c at step s stays in the last shifts - s of
    the summed matrices, so it adds (shifts - s) c.  A diagonal entry
    sums to shifts and one below it to 0.  The ladder's letters are
    distinct, so its branches chain with elif; a pattern's may repeat, so
    each position has its own if."""
    d = m + 1
    ladder = entries is None
    upper = [i * d + j for i in range(d) for j in range(i + 1, d)]
    summed = {}  # flat index -> the accumulators its changes go to
    for e in upper if ladder else entries:
        if e // d < e % d:
            summed.setdefault(e, []).append(f"s{e}" if ladder else "total")
    keywords = ["if"] + ["elif" if ladder else "if"] * (m - 1)
    branches = [(k, f"        {kw} ch == p{k}:") for kw, k in zip(keywords, reversed(range(m)))]
    src = [f"def kernel({', '.join(['word', 'shifts', *(f'p{k}' for k in range(m))])}):"]
    if upper:
        src.append(f"    {' = '.join(f'm{i}' for i in upper)} = 0")
        src.append("    for ch in word:")
    for k, branch in branches:
        src.append(branch)
        src += [f"            m{r * d + k + 1} += m{r * d + k}" for r in range(k)]
        src.append(f"            m{k * d + k + 1} += 1")
    if ladder:
        src += [f"    s{i} = shifts * m{i}" for i in upper]
    else:
        terms = [f"m{e}" if e // d < e % d else "1" for e in entries if e // d <= e % d]
        src.append(f"    total = shifts * ({' + '.join(terms) or 0})")

    def update(t, op, f):
        sums = (f"            {a} {op}= m{f} * weight" for a in summed.get(t, ()))
        return [f"            m{t} {op}= m{f}", *sums]

    if m > 1:  # a single letter's rotation changes nothing
        src.append("    for weight, ch in zip(range(shifts - 1, 0, -1), word):")
        for k, branch in branches:
            src.append(branch)
            for r in range(k):
                src += update(r * d + k + 1, "+", r * d + k)
            for j in range(k + 2, d):
                src += update(k * d + j, "-", (k + 1) * d + j)
    if ladder:
        rows = (
            ", ".join("shifts" if j == i else f"s{i * d + j}" if j > i else "0" for j in range(d))
            for i in range(d)
        )
        src.append(f"    return ({''.join(f'({row}), ' for row in rows)})")
    else:
        src.append("    return total")
    return "\n".join(src) + "\n"


def _read(state: int, masks: dict, width: int, word: str) -> int:
    """The `_table` state `state` with `word` read: each letter x adds the
    lanes of `masks[x]` into the lanes one above them."""
    get = masks.get
    for x in word:
        state += (state & get(x, 0)) << width
    return state


def _parikh_rows(alphabet: Alphabet, word: str):
    """The integer rows of M_v(word) for the ladder v = a_1 ... a_s: the
    rotation sums of the ladder's `_rotation_kernel` over one shift, the
    word itself (the identity for λ).  The first call for an alphabet size
    generates that size's kernel, as the circular matrix does."""
    alphabet.validate(word)
    return _rotation_kernel(alphabet.size)(word, 1, *alphabet.symbols)


def parikh_matrix(alphabet: Alphabet, word: str) -> UnitriangularMatrix:
    """The (s+1)x(s+1) matrix whose (i, j+1) entry counts the ladder subword
    a_i a_{i+1} ... a_j of consecutive alphabet symbols.

    The map is a morphism: the matrix of a concatenation is the product of
    the factors' matrices.  The second diagonal is the Parikh vector.
    """
    return UnitriangularMatrix._from_sums(_parikh_rows(alphabet, word), 1)


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
