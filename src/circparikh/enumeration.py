"""Exhaustive enumeration and verification at desk scale.

Provides necklace enumeration, the partition of circular words into
M-equivalence classes keyed by their circular Parikh matrix, a registry
of exhaustive verification suites for the package's identities, and the
search for a negative minor in a circular Parikh matrix.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from operator import itemgetter

from . import circular
from .circular import (
    CircularWord,
    _coverings,
    _ladder_sums,
    _sums_inverse_alternate,
    canonicalize,
    slender_partition_check,
)
from .matrices import _key, _rational_text, _tri_mul
from .rewriting import _counts, _rules, apply_e1, apply_e2, naive_rule_failure_examples
from .words import Alphabet, _counter, _read, _table, mirror, parikh_vector

_AB = Alphabet("ab")
_ABC = Alphabet("abc")


def enumerate_necklaces(alphabet: Alphabet, n: int) -> list:
    """One canonical CircularWord per conjugacy class of length-n words,
    in lexicographic order of the canonical representative.

    Fredricksen-Kessler-Maiorana generation (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992): step through the
    pre-necklaces in lexicographic order and keep those whose longest
    Lyndon prefix has a length dividing n; that prefix is the primitive root.
    """
    if n < 0:
        raise ValueError("length must be non-negative")
    symbols = alphabet.symbols
    successor = dict(zip(symbols, symbols[1:]))
    prefix = symbols[0]
    word = prefix * n
    out = []
    while True:
        if n % len(prefix) == 0:
            out.append(CircularWord(alphabet, word))
        head = word.rstrip(symbols[-1])
        if not head:
            return out
        # Raise the last symbol that can grow and extend periodically.
        prefix = head[:-1] + successor[head[-1]]
        word = prefix * (n // len(prefix)) + prefix[: n % len(prefix)]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def necklace_count(size: int, n: int) -> int:
    """Number of conjugacy classes of length-n words over `size` symbols."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if size < 0:
        raise ValueError("alphabet size must be non-negative")
    if n == 0:
        return 1
    return sum(_phi(d) * size ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@dataclass(frozen=True)
class MEquivClassReport:
    """Partition of the length-n necklaces by circular Parikh matrix key."""

    alphabet: Alphabet
    length: int
    classes: dict

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def largest_class(self) -> int:
        return max((len(v) for v in self.classes.values()), default=0)

    @property
    def singleton_count(self) -> int:
        return sum(1 for v in self.classes.values() if len(v) == 1)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphabet": str(self.alphabet),
                "length": self.length,
                "class_count": self.class_count,
                "largest_class": self.largest_class,
                "singleton_count": self.singleton_count,
                "classes": {k: list(v) for k, v in sorted(self.classes.items())},
            },
            sort_keys=True,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["word", "class_size", "matrix_key"])
        rows = []
        for key, members in self.classes.items():
            for word in members:
                size = CircularWord(self.alphabet, word).class_size
                rows.append((word, size, key))
        for word, size, key in sorted(rows):
            writer.writerow([f"[{word}]", size, key])
        return buf.getvalue()


def _necklace_classes(alphabet: Alphabet, n: int, key=_ladder_sums) -> dict:
    """The canonical words of the length-n necklaces grouped by `key`, in
    enumeration order; the default key, the ladder sums, groups by matrix."""
    classes = {}
    for cw in enumerate_necklaces(alphabet, n):
        classes.setdefault(key(cw), []).append(cw.canonical)
    return classes


def partition_by_matrix(alphabet: Alphabet, n: int) -> MEquivClassReport:
    """Group the necklaces of length n by their matrix key; two members of
    a group are M-equivalent, members of different groups are not.

    The key is `UnitriangularMatrix.key` of the circular Parikh matrix,
    the `matrices._key` of the ladder sums over max(n, 1), with each
    distinct sum's text built once."""
    scale, text = max(n, 1), cache(_rational_text)
    classes = _necklace_classes(alphabet, n)
    return MEquivClassReport(
        alphabet, n, {_key(sums, scale, text): tuple(v) for sums, v in classes.items()}
    )


@dataclass(frozen=True)
class SuiteLimits:
    """Optional overrides for a suite's default bounds."""

    max_length: int | None = None
    max_power: int | None = None
    max_split: int | None = None
    failure_cap: int = 10


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: tuple
    failure_count: int
    elapsed_us: int

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def _walk(symbols, max_len: int, root: int, masks: dict, width: int):
    """(w, state of w) for every word w up to max_len, by length and then in
    `itertools.product` order, where `root` is the packed `_table` state of
    λ, built for words up to max_len, and the state of w·x is that of w with
    x read by `_read`.  Depth-first to each length in turn through the
    prefix tree, on an explicit stack: a word's children are pushed last
    letter first, so the first pops next.  The stack holds the pending
    siblings of one root-to-leaf path, never a whole level: with a word of
    length n just yielded, at most n (|Σ| - 1) + 1 states besides the root.
    Over two or more letters it takes about |Σ| / (|Σ| - 1) steps per
    word."""
    backward = tuple(reversed(symbols))
    for n in range(max_len + 1):
        stack = [("", root)]
        while stack:
            word, state = stack.pop()
            if len(word) == n:
                yield word, state
                continue
            for x in backward:
                stack.append((word + x, _read(state, masks, width, x)))


def _ladder_sums_by_word(alphabet: Alphabet):
    """A function from a word to the ladder sums of its necklace, which
    computes each necklace's sums once.  It reads `circular._ladder_sums`
    at call time, the seam the failing `ce2-iff` golden swaps."""
    sums = {}

    def ladder_sums(word):
        cw = canonicalize(alphabet, word)
        if cw.canonical not in sums:
            sums[cw.canonical] = circular._ladder_sums(cw)
        return sums[cw.canonical]

    return ladder_sums


def _necklaces_up_to(alphabet: Alphabet, max_len: int):
    for n in range(max_len + 1):
        yield from enumerate_necklaces(alphabet, n)


def _split_pairs(symbols, max_total: int):
    """All (x, y) word pairs with |x| + |y| <= max_total."""
    for total in range(max_total + 1):
        for x_len in range(total + 1):
            for xt in itertools.product(symbols, repeat=x_len):
                for yt in itertools.product(symbols, repeat=total - x_len):
                    yield "".join(xt), "".join(yt)


def _label(word: str) -> str:
    return word if word else "λ"


def _binary_closed_form(alphabet, max_length):
    """The closed form (1, na, na nb / 2; 0, 1, nb) times n = max(|w|, 1),
    against the ladder sums in integers."""
    a, b = alphabet.symbols
    ladder_sums = _ladder_sums_by_word(alphabet)
    words = (
        "".join(t) for k in range(max_length + 1) for t in itertools.product(alphabet.symbols, repeat=k)
    )
    for w in words:
        (_, t01, t02), (_, _, t12), _ = ladder_sums(w)
        n, na, nb = max(len(w), 1), w.count(a), w.count(b)
        ok = (t01, t12, 2 * t02) == (n * na, n * nb, n * na * nb)
        yield None if ok else f"w={_label(w)}: circular matrix differs from closed form"


def _power(alphabet, max_length, max_power):
    """One case per (necklace, p).  Each necklace's ladder sums T are taken
    once and T^p kept as a running product, handed to
    `circular._power_holds`, read at call time: the seam the failing
    `power` goldens swap."""
    for cw in _necklaces_up_to(alphabet, max_length):
        sums = power = circular._ladder_sums(cw)
        for p in range(1, max_power + 1):
            if p > 1:
                power = _tri_mul(power, sums)
            ok = circular._power_holds(cw, p, power)
            yield None if ok else f"{cw} p={p}: matrix of the power differs from the power"


def _inverse_alternate(alphabet, max_length):
    """One case per necklace; the mirror's ladder sums are looked up among
    those of the run, as the mirror of a necklace is a necklace."""
    ladder_sums = _ladder_sums_by_word(alphabet)
    for cw in _necklaces_up_to(alphabet, max_length):
        w = cw.canonical
        ok = _sums_inverse_alternate(ladder_sums(w), ladder_sums(mirror(w)), max(cw.length, 1))
        yield None if ok else f"{cw}: inverse is not the alternate of the mirrored class"


def _necklace_checks(check, message, alphabet, max_length):
    """One case per necklace: `check(cw)` holds, or "[w]: `message`"."""
    for cw in _necklaces_up_to(alphabet, max_length):
        yield None if check(cw) else f"{cw}: {message}"


def _product_identity(alphabet, max_length):
    """The subword counts of the s! permutation words sum to the letter-count
    product: linearly with one packed DP step per word, then per necklace
    with the alphabet's `_coverings`, built once, handed to
    `circular._product_identity_holds`, read at call time."""
    symbols = alphabet.symbols
    patterns = ["".join(p) for p in itertools.permutations(symbols)]
    root, masks, width = _table(patterns, max_length)
    counts = _counter(patterns, width)
    for w, state in _walk(symbols, max_length, root, masks, width):
        ok = sum(counts(state)) == math.prod(w.count(s) for s in symbols)
        yield None if ok else f"w={_label(w)}: linear permutation-sum identity fails"
    coverings = _coverings(alphabet)
    yield from _necklace_checks(
        lambda cw: circular._product_identity_holds(cw, coverings),
        "circular permutation-sum identity fails",
        alphabet,
        max_length,
    )


def _ce_iff(rule, alphabet, max_split):
    """For each swap x·head·y·tail -> x·tail·y·head of `rule`, the side
    condition holds iff the two circular words are M-equivalent."""
    factors = _rules(alphabet.symbols).factors[rule]
    ladder_sums = _ladder_sums_by_word(alphabet)
    for x, y in _split_pairs(alphabet.symbols, max_split):
        for alpha, head, tail, roles, sides in factors:
            lhs, rhs = sides(_counts(x, roles), _counts(y, roles))
            condition = lhs == rhs
            w, w2 = x + head + y + tail, x + tail + y + head
            equivalent = ladder_sums(w) == ladder_sums(w2)
            site = f"x={_label(x)} y={_label(y)}" + ("" if alpha is None else f" α={alpha}")
            ok = condition == equivalent
            yield None if ok else f"{site}: condition {condition}, equivalence {equivalent}"


def _linear_rules(alphabet, max_length):
    """Each E1/E2 result w2 of w has the linear Parikh rows of w.  The walk
    holds the subword DPs of the ladder's suffixes, each row of M_v from its
    diagonal on, packed into one integer (`_table`), so equal states are
    equal matrices.  It gives those of every word of one length n, in
    base-|Σ| rank order, before any is checked; they are kept in that
    order, without the words.  A w2 of length n over Σ is looked up at its
    rank, w2 read as a base-|Σ| numeral with the i-th symbol the digit i;
    any other w2 fails.  Equal states are one shared integer."""
    symbols, size = alphabet.symbols, alphabet.size
    ladder = "".join(symbols)
    digits = {ord(x): str(i) for i, x in enumerate(symbols)}
    table = _table([ladder[i:] for i in range(len(ladder))], max_length)
    for n, level in itertools.groupby(_walk(symbols, max_length, *table), lambda item: len(item[0])):
        distinct = {}
        rows = [distinct.setdefault(state, state) for _, state in level]
        for w, own in zip(map("".join, itertools.product(symbols, repeat=n)), rows):
            for w2 in sorted(apply_e1(alphabet, w) | apply_e2(alphabet, w)):
                ok = (
                    len(w2) == n
                    and not w2.translate(alphabet._foreign)
                    and rows[int(w2.translate(digits), size)] == own
                )
                yield None if ok else f"{w} -> {w2}: linear Parikh matrix changed"


def _naive_failures(alphabet):
    """The six expected values of the two fixed ternary counterexamples."""
    expected = (Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 5), Fraction(1))
    for e, (left, right) in zip(naive_rule_failure_examples(), expected):
        yield None if e.left_count == left else f"{e.left} count {e.left_count} != {left}"
        yield None if e.right_count == right else f"{e.right} count {e.right_count} != {right}"
        yield None if not e.equivalent else f"{e.left} and {e.right} unexpectedly M-equivalent"


def _binary_mequiv(alphabet, max_length):
    """One case per necklace; a length whose partitions differ fails once."""
    for n in range(max_length + 1):
        by_key = _necklace_classes(alphabet, n)
        by_vector = _necklace_classes(alphabet, n, lambda cw: parikh_vector(alphabet, cw.canonical))
        ok = {frozenset(v) for v in by_key.values()} == {frozenset(v) for v in by_vector.values()}
        yield from itertools.repeat(None, sum(map(len, by_key.values())) - 1)
        yield None if ok else f"n={n}: M-equivalence classes differ from Parikh-vector classes"


def _distinct_count(alphabet, max_length):
    for n in range(max_length + 1):
        count = len(_necklace_classes(alphabet, n))
        yield None if count == n + 1 else f"n={n}: {count} distinct matrices, expected {n + 1}"


@dataclass(frozen=True)
class _Suite:
    """A verification suite: what it checks, the alphabets it enumerates in
    turn (the largest sets the CLI length cap), its default bounds, and
    `cases(alphabet, **bounds)`, which yields None for each case that
    holds and a failure message for each that does not."""

    description: str
    alphabets: tuple
    defaults: dict
    cases: Callable


_SUITES = {
    "binary-closed-form": _Suite(
        "circular matrix of every binary word equals the letter-count closed form",
        (_AB,), {"max_length": 12}, _binary_closed_form,
    ),
    "power": _Suite(
        "matrix of [w^p] equals the p-th matrix power, |Σ| <= 3",
        (_AB, _ABC), {"max_length": 8, "max_power": 4}, _power,
    ),
    "inverse-alternate": _Suite(
        "matrix inverse equals the alternate matrix of the mirrored class, |Σ| <= 3",
        (_AB, _ABC), {"max_length": 8}, _inverse_alternate,
    ),
    "product-identity": _Suite(
        "permutation-sum equals letter-count product, linear and circular",
        (_AB, _ABC), {"max_length": 8}, _product_identity,
    ),
    "slender-partition": _Suite(
        "direct counts over slender representatives sum to the letter-count product",
        (_AB, _ABC), {"max_length": 8},
        partial(
            _necklace_checks,
            slender_partition_check,
            "slender-representative partition identity fails",
        ),
    ),
    "ce1-iff": _Suite(
        "CE1 side condition holds iff the swap is M-equivalent",
        (_ABC,), {"max_split": 5}, partial(_ce_iff, "CE1"),
    ),
    "ce2-iff": _Suite(
        "CE2 side condition holds iff the swap is M-equivalent",
        (_ABC,), {"max_split": 5}, partial(_ce_iff, "CE2"),
    ),
    "linear-rules": _Suite(
        "E1/E2 rewrites preserve the linear Parikh matrix",
        (_ABC,), {"max_length": 8}, _linear_rules,
    ),
    "naive-failures": _Suite(
        "linear rules applied circularly break M-equivalence on the known pairs",
        (_ABC,), {}, _naive_failures,
    ),
    "binary-mequiv": _Suite(
        "binary M-equivalence classes coincide with Parikh-vector classes",
        (_AB,), {"max_length": 12}, _binary_mequiv,
    ),
    "distinct-count": _Suite(
        "binary circular words of length n form exactly n+1 matrix classes",
        (_AB,), {"max_length": 12}, _distinct_count,
    ),
}

SUITE_NAMES = tuple(_SUITES)


def _suite(name: str) -> _Suite:
    """The registry entry of `name`; a ValueError naming the known suites."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}")
    return _SUITES[name]


def run_suite(name: str, limits: SuiteLimits | None = None) -> SuiteResult:
    """Run one exhaustive verification suite and collect its witnesses; a
    ValueError for a bound out of range or one under which it checks no case."""
    suite = _suite(name)
    if limits is None:
        limits = SuiteLimits()
    for field, least in (("max_length", 0), ("max_split", 0), ("max_power", 1), ("failure_cap", 0)):
        value = getattr(limits, field)
        if value is not None and value < least:
            raise ValueError(f"{field} must be at least {least}, got {value}")
    bounds = {
        field: default if getattr(limits, field) is None else getattr(limits, field)
        for field, default in suite.defaults.items()
    }
    cap = limits.failure_cap
    start = time.perf_counter_ns()
    # Cases, and failures past the cap, are counted, not kept: a large bound
    # checks millions of cases.
    checked, failures, failure_count = 0, [], 0
    for alphabet in suite.alphabets:
        for message in suite.cases(alphabet, **bounds):
            checked += 1
            if message is not None:
                failure_count += 1
                if cap is None or failure_count <= cap:
                    failures.append(message)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    if not checked:
        shown = ", ".join(f"{field}={value}" for field, value in bounds.items())
        raise ValueError(f"suite {name} checks no case at {shown}")
    return SuiteResult(name, checked, tuple(failures), failure_count, elapsed_us)


@dataclass(frozen=True)
class MinorWitness:
    """A square minor of a circular Parikh matrix with negative value.
    Row and column indices are 1-based."""

    word: str
    length: int
    rows: tuple
    cols: tuple
    value: Fraction


def _int_det(matrix) -> int:
    """Determinant of a square integer matrix: closed forms up to 3 x 3,
    Laplace expansion along the first row beyond."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    if k == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    sign = 1
    for j in range(k):
        if matrix[0][j]:
            sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += sign * matrix[0][j] * _int_det(sub)
        sign = -sign
    return total


def _minor_pairs(d: int) -> list:
    """The (rows, cols) index pairs of the square minors of a d x d matrix,
    in scan order, less those whose submatrix is upper triangular
    (rows[u+1] > cols[u] for every u): in a triangular matrix with entries
    >= 0 such a minor is a product of entries >= 0."""
    pairs = []
    for k in range(1, d + 1):
        index_sets = list(itertools.combinations(range(d), k))
        for rows in index_sets:
            for cols in index_sets:
                if any(rows[u + 1] <= cols[u] for u in range(k - 1)):
                    pairs.append((rows, cols))
    return pairs


def search_negative_minor(alphabet: Alphabet, max_n: int) -> MinorWitness | None:
    """Scan all necklaces up to length max_n for a circular Parikh matrix
    with a negative square minor; return the first witness found, or None.

    The scan order (length, then canonical word, then minor size, then
    index tuples) is deterministic.  Determinants are taken on the integer
    ladder sums, the matrix scaled by the word length, which has the same
    sign; the reported value is rescaled to the true minor of the rational
    matrix.  Minors that cannot be negative (see `_minor_pairs`) are
    skipped.  Each kept pair reads its columns with one `itemgetter`, and
    the 2 x 2 and 3 x 3 minors, all that alphabets of size up to 3 keep,
    are closed forms (`_int_det`).
    """
    if max_n < 0:
        raise ValueError("length must be non-negative")
    pairs = [(r, c, itemgetter(*c)) for r, c in _minor_pairs(alphabet.size + 1)]
    for n in range(max_n + 1):
        for cw in enumerate_necklaces(alphabet, n):
            rows = _ladder_sums(cw)
            for row_idx, col_idx, columns in pairs:
                det = _int_det([columns(rows[i]) for i in row_idx])
                if det < 0:
                    return MinorWitness(
                        cw.canonical,
                        n,
                        tuple(i + 1 for i in row_idx),
                        tuple(j + 1 for j in col_idx),
                        Fraction(det, max(n, 1) ** len(row_idx)),
                    )
    return None
