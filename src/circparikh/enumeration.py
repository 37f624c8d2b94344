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
from functools import partial

from . import circular
from .circular import (
    CircularWord,
    _class_average,
    _ladder_sums,
    canonicalize,
    circular_inverse_alternate_check,
    circular_power_check,
    primitive_root,
    product_identity_check,
    slender_partition_check,
)
from .rewriting import _swaps, apply_e1, apply_e2, naive_rule_failure_examples
from .words import Alphabet, _parikh_rows, _positions, parikh_vector

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
    if n == 0:
        return [CircularWord(alphabet, "", "")]
    symbols = alphabet.symbols
    successor = dict(zip(symbols, symbols[1:]))
    prefix = symbols[0]
    word = prefix * n
    out = []
    while True:
        if n % len(prefix) == 0:
            out.append(CircularWord(alphabet, word, prefix))
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
                rows.append((word, len(primitive_root(word)) if word else 1, key))
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
    a group are M-equivalent, members of different groups are not."""
    classes = _necklace_classes(alphabet, n)
    return MEquivClassReport(
        alphabet, n, {_class_average(sums, n).key(): tuple(v) for sums, v in classes.items()}
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
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def _words_up_to(symbols, max_len: int):
    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


def _walk(symbols, max_len: int, root, step):
    """(w, state of w) for every word w up to max_len, in `_words_up_to`
    order, where `root` is the state of λ and `step(state, x)` the state of
    w·x.  Depth-first to each length in turn through the prefix tree, so it
    holds one root-to-leaf path of states, never a whole level; over two or
    more letters it takes about |Σ| / (|Σ| - 1) steps per word."""

    def below(word, state, depth):
        if not depth:
            yield word, state
            return
        for x in symbols:
            yield from below(word + x, step(state, x), depth - 1)

    for n in range(max_len + 1):
        yield from below("", root, n)


def _extend_rows(rank, rows, x):
    """The linear Parikh rows of w·x from those of w: appending the symbol
    of rank q adds column q into column q+1."""
    q = rank[x]
    rows = [row.copy() for row in rows]
    for row in rows[: q + 1]:
        row[q + 1] += row[q]
    return rows


def _extend_counts(patterns, dps, x):
    """The subword-count DPs of w·x from those of w, one per pattern given
    by its `_positions`: dp[j] counts the placements of pattern[:j]."""
    out = []
    for positions, dp in zip(patterns, dps):
        dp = dp.copy()
        for j in positions.get(x, ()):
            dp[j + 1] += dp[j]
        out.append(dp)
    return out


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
    for w in _words_up_to(alphabet.symbols, max_length):
        (_, t01, t02), (_, _, t12), _ = ladder_sums(w)
        n, na, nb = max(len(w), 1), w.count(a), w.count(b)
        ok = (t01, t12, 2 * t02) == (n * na, n * nb, n * na * nb)
        yield None if ok else f"w={_label(w)}: circular matrix differs from closed form"


def _power(alphabet, max_length, max_power):
    for cw in _necklaces_up_to(alphabet, max_length):
        for p in range(1, max_power + 1):
            ok = circular_power_check(cw, p)
            yield None if ok else f"{cw} p={p}: matrix of the power differs from the power"


def _necklace_checks(check, message, alphabet, max_length):
    """One case per necklace: `check(cw)` holds, or "[w]: `message`"."""
    for cw in _necklaces_up_to(alphabet, max_length):
        yield None if check(cw) else f"{cw}: {message}"


def _product_identity(alphabet, max_length):
    """The subword counts of the s! permutation words sum to the letter-count
    product: linearly with one DP step per word, then per necklace."""
    symbols = alphabet.symbols
    patterns = [_positions("".join(p)) for p in itertools.permutations(symbols)]
    root = [[1] + [0] * len(symbols) for _ in patterns]
    for w, dps in _walk(symbols, max_length, root, partial(_extend_counts, patterns)):
        ok = sum(dp[-1] for dp in dps) == math.prod(w.count(s) for s in symbols)
        yield None if ok else f"w={_label(w)}: linear permutation-sum identity fails"
    yield from _necklace_checks(
        product_identity_check, "circular permutation-sum identity fails", alphabet, max_length
    )


def _ce_iff(rule, alphabet, max_split):
    """For each swap x·head·y·tail -> x·tail·y·head of `rule`, the side
    condition holds iff the two circular words are M-equivalent."""
    swaps = _swaps(alphabet, rule)
    ladder_sums = _ladder_sums_by_word(alphabet)
    for x, y in _split_pairs(alphabet.symbols, max_split):
        for alpha, head, tail, side_condition in swaps:
            lhs, rhs = side_condition(x, y)
            condition = lhs == rhs
            w, w2 = x + head + y + tail, x + tail + y + head
            equivalent = ladder_sums(w) == ladder_sums(w2)
            site = f"x={_label(x)} y={_label(y)}" + ("" if alpha is None else f" α={alpha}")
            ok = condition == equivalent
            yield None if ok else f"{site}: condition {condition}, equivalence {equivalent}"


def _linear_rules(alphabet, max_length):
    step = partial(_extend_rows, alphabet._rank)
    for w, rows in _walk(alphabet.symbols, max_length, _parikh_rows(alphabet, ""), step):
        for w2 in sorted(apply_e1(alphabet, w) | apply_e2(alphabet, w)):
            ok = _parikh_rows(alphabet, w2) == rows
            yield None if ok else f"{w} -> {w2}: linear Parikh matrix changed"


def _naive_failures(alphabet):
    """The six expected values of the two fixed ternary counterexamples."""
    e1, e2 = naive_rule_failure_examples()
    yield None if e1.left_count == Fraction(1, 3) else f"{e1.left} count {e1.left_count} != 1/3"
    yield None if e1.right_count == Fraction(2, 3) else f"{e1.right} count {e1.right_count} != 2/3"
    yield None if not e1.equivalent else f"{e1.left} and {e1.right} unexpectedly M-equivalent"
    yield None if e2.left_count == Fraction(2, 5) else f"{e2.left} count {e2.left_count} != 2/5"
    yield None if e2.right_count == 1 else f"{e2.right} count {e2.right_count} != 1"
    yield None if not e2.equivalent else f"{e2.left} and {e2.right} unexpectedly M-equivalent"


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
        (_AB, _ABC), {"max_length": 8},
        partial(
            _necklace_checks,
            circular_inverse_alternate_check,
            "inverse is not the alternate of the mirrored class",
        ),
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
    start = time.perf_counter()
    outcomes = [m for alphabet in suite.alphabets for m in suite.cases(alphabet, **bounds)]
    elapsed = time.perf_counter() - start
    if not outcomes:
        shown = ", ".join(f"{field}={value}" for field, value in bounds.items())
        raise ValueError(f"suite {name} checks no case at {shown}")
    failures = [message for message in outcomes if message is not None]
    return SuiteResult(
        name, len(outcomes), tuple(failures[: limits.failure_cap]), len(failures), elapsed
    )


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
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    if k == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = 0
    sign = 1
    for j in range(k):
        if matrix[0][j]:
            sub = [
                [row[col] for col in range(k) if col != j] for row in matrix[1:]
            ]
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
    matrix scaled by the word length, which has the same sign; the reported
    value is rescaled to the true minor of the rational matrix.  Minors
    that cannot be negative (see `_minor_pairs`) are skipped.
    """
    if max_n < 0:
        raise ValueError("length must be non-negative")
    pairs = _minor_pairs(alphabet.size + 1)
    for n in range(max_n + 1):
        for cw in enumerate_necklaces(alphabet, n):
            rows = _ladder_sums(cw)
            for row_idx, col_idx in pairs:
                det = _int_det([[rows[i][j] for j in col_idx] for i in row_idx])
                if det < 0:
                    return MinorWitness(
                        cw.canonical,
                        n,
                        tuple(i + 1 for i in row_idx),
                        tuple(j + 1 for j in col_idx),
                        Fraction(det, max(n, 1) ** len(row_idx)),
                    )
    return None
