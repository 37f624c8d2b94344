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
from dataclasses import dataclass
from fractions import Fraction

from .circular import (
    CircularWord,
    _class_average,
    _ladder_sums,
    binary_closed_form,
    canonicalize,
    circular_inverse_alternate_check,
    circular_parikh_matrix,
    circular_power_check,
    m_equivalent,
    primitive_root,
    product_identity_check,
    slender_partition_check,
)
from .rewriting import (
    apply_e1,
    apply_e2,
    ce1_condition,
    ce2_condition,
    naive_rule_failure_examples,
)
from .words import Alphabet, _parikh_rows, parikh_vector, permutation_identity_check

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


def _suite_binary_closed_form(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 12
    a, b = _AB.symbols
    checked = 0
    for w in _words_up_to(_AB.symbols, nmax):
        cw = canonicalize(_AB, w)
        if circular_parikh_matrix(cw) != binary_closed_form(w.count(a), w.count(b)):
            fail(f"w={_label(w)}: circular matrix differs from closed form")
        checked += 1
    return checked


def _suite_power(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 8
    pmax = limits.max_power if limits.max_power is not None else 4
    checked = 0
    for alphabet in (_AB, _ABC):
        for cw in _necklaces_up_to(alphabet, nmax):
            for p in range(1, pmax + 1):
                if not circular_power_check(cw, p):
                    fail(f"{cw} p={p}: matrix of the power differs from the power")
                checked += 1
    return checked


def _suite_inverse_alternate(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 8
    checked = 0
    for alphabet in (_AB, _ABC):
        for cw in _necklaces_up_to(alphabet, nmax):
            if not circular_inverse_alternate_check(cw):
                fail(f"{cw}: inverse is not the alternate of the mirrored class")
            checked += 1
    return checked


def _suite_product_identity(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 8
    checked = 0
    for alphabet in (_AB, _ABC):
        for w in _words_up_to(alphabet.symbols, nmax):
            if not permutation_identity_check(alphabet, w):
                fail(f"w={_label(w)}: linear permutation-sum identity fails")
            checked += 1
        for cw in _necklaces_up_to(alphabet, nmax):
            if not product_identity_check(cw):
                fail(f"{cw}: circular permutation-sum identity fails")
            checked += 1
    return checked


def _suite_slender_partition(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 8
    checked = 0
    for alphabet in (_AB, _ABC):
        for cw in _necklaces_up_to(alphabet, nmax):
            if not slender_partition_check(cw):
                fail(f"{cw}: slender-representative partition identity fails")
            checked += 1
    return checked


def _suite_ce1_iff(limits, fail):
    kmax = limits.max_split if limits.max_split is not None else 5
    a, _, c = _ABC.symbols
    checked = 0
    for x, y in _split_pairs(_ABC.symbols, kmax):
        w = x + a + c + y + c + a
        w2 = x + c + a + y + a + c
        lhs, rhs = ce1_condition(_ABC, x, y)
        condition = lhs == rhs
        equivalent = m_equivalent(canonicalize(_ABC, w), canonicalize(_ABC, w2))
        if condition != equivalent:
            fail(
                f"x={_label(x)} y={_label(y)}: condition {condition}, "
                f"equivalence {equivalent}"
            )
        checked += 1
    return checked


def _suite_ce2_iff(limits, fail):
    kmax = limits.max_split if limits.max_split is not None else 5
    a, b, c = _ABC.symbols
    checked = 0
    for x, y in _split_pairs(_ABC.symbols, kmax):
        for alpha in (a, c):
            w = x + alpha + b + y + b + alpha
            w2 = x + b + alpha + y + alpha + b
            lhs, rhs = ce2_condition(_ABC, x, y, alpha)
            condition = lhs == rhs
            equivalent = m_equivalent(canonicalize(_ABC, w), canonicalize(_ABC, w2))
            if condition != equivalent:
                fail(
                    f"x={_label(x)} y={_label(y)} α={alpha}: condition {condition}, "
                    f"equivalence {equivalent}"
                )
            checked += 1
    return checked


def _suite_linear_rules(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 8
    checked = 0
    for w in _words_up_to(_ABC.symbols, nmax):
        rows = _parikh_rows(_ABC, w)
        for w2 in sorted(apply_e1(_ABC, w) | apply_e2(_ABC, w)):
            if _parikh_rows(_ABC, w2) != rows:
                fail(f"{w} -> {w2}: linear Parikh matrix changed")
            checked += 1
    return checked


def _suite_naive_failures(limits, fail):
    e1, e2 = naive_rule_failure_examples()
    expectations = [
        (e1.left_count == Fraction(1, 3), f"{e1.left} count {e1.left_count} != 1/3"),
        (e1.right_count == Fraction(2, 3), f"{e1.right} count {e1.right_count} != 2/3"),
        (not e1.equivalent, f"{e1.left} and {e1.right} unexpectedly M-equivalent"),
        (e2.left_count == Fraction(2, 5), f"{e2.left} count {e2.left_count} != 2/5"),
        (e2.right_count == 1, f"{e2.right} count {e2.right_count} != 1"),
        (not e2.equivalent, f"{e2.left} and {e2.right} unexpectedly M-equivalent"),
    ]
    for ok, message in expectations:
        if not ok:
            fail(message)
    return len(expectations)


def _suite_binary_mequiv(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 12
    checked = 0
    for n in range(nmax + 1):
        by_key = _necklace_classes(_AB, n)
        by_vector = _necklace_classes(_AB, n, lambda cw: parikh_vector(_AB, cw.canonical))
        if {frozenset(v) for v in by_key.values()} != {frozenset(v) for v in by_vector.values()}:
            fail(f"n={n}: M-equivalence classes differ from Parikh-vector classes")
        checked += sum(map(len, by_key.values()))
    return checked


def _suite_distinct_count(limits, fail):
    nmax = limits.max_length if limits.max_length is not None else 12
    checked = 0
    for n in range(nmax + 1):
        count = len(_necklace_classes(_AB, n))
        if count != n + 1:
            fail(f"n={n}: {count} distinct matrices, expected {n + 1}")
        checked += 1
    return checked


_SUITES = {
    "binary-closed-form": (
        _suite_binary_closed_form,
        "circular matrix of every binary word equals the letter-count closed form",
    ),
    "power": (_suite_power, "matrix of [w^p] equals the p-th matrix power, |Σ| <= 3"),
    "inverse-alternate": (
        _suite_inverse_alternate,
        "matrix inverse equals the alternate matrix of the mirrored class, |Σ| <= 3",
    ),
    "product-identity": (
        _suite_product_identity,
        "permutation-sum equals letter-count product, linear and circular",
    ),
    "slender-partition": (
        _suite_slender_partition,
        "direct counts over slender representatives sum to the letter-count product",
    ),
    "ce1-iff": (_suite_ce1_iff, "CE1 side condition holds iff the swap is M-equivalent"),
    "ce2-iff": (_suite_ce2_iff, "CE2 side condition holds iff the swap is M-equivalent"),
    "linear-rules": (
        _suite_linear_rules,
        "E1/E2 rewrites preserve the linear Parikh matrix",
    ),
    "naive-failures": (
        _suite_naive_failures,
        "linear rules applied circularly break M-equivalence on the known pairs",
    ),
    "binary-mequiv": (
        _suite_binary_mequiv,
        "binary M-equivalence classes coincide with Parikh-vector classes",
    ),
    "distinct-count": (
        _suite_distinct_count,
        "binary circular words of length n form exactly n+1 matrix classes",
    ),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, limits: SuiteLimits | None = None) -> SuiteResult:
    """Run one exhaustive verification suite and collect its witnesses."""
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    if limits is None:
        limits = SuiteLimits()
    for field, least in (("max_length", 0), ("max_split", 0), ("max_power", 1), ("failure_cap", 0)):
        value = getattr(limits, field)
        if value is not None and value < least:
            raise ValueError(f"{field} must be at least {least}, got {value}")
    failures = []
    failure_count = 0

    def fail(message: str) -> None:
        nonlocal failure_count
        failure_count += 1
        if len(failures) < limits.failure_cap:
            failures.append(message)

    start = time.perf_counter()
    checked = _SUITES[name][0](limits, fail)
    elapsed = time.perf_counter() - start
    return SuiteResult(name, checked, tuple(failures), failure_count, elapsed)


def suite_description(name: str) -> str:
    return _SUITES[name][1]


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
