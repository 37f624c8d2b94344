"""Acceptance suite: every criterion checked at exact equality.

Each test prints one PASS/FAIL line (visible with `pytest -s`).
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from circparikh import (
    Alphabet,
    SuiteLimits,
    UnitriangularMatrix,
    avg_count,
    canonicalize,
    circular_parikh_matrix,
    conjugacy_class,
    count_subword,
    direct_count,
    enumerate_necklaces,
    find_ce1,
    find_ce2,
    m_equivalent,
    mirror_class,
    parikh_matrix,
    partition_by_matrix,
    rewrite_closure,
    run_suite,
    search_negative_minor,
    weak_ratio,
)

ABC = Alphabet("abc")
AB = Alphabet("ab")
ABCD = Alphabet("abcd")
F = Fraction


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def words_up_to(symbols, max_len):
    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


def test_criterion_1_golden_examples():
    with criterion(1, "golden examples"):
        assert count_subword("bcbcc", "bc") == 5
        assert count_subword("aabcbc", "abc") == 6
        assert parikh_matrix(ABC, "bacbc").rows == (
            (1, 1, 1, 1),
            (0, 1, 2, 3),
            (0, 0, 1, 2),
            (0, 0, 0, 1),
        )
        assert direct_count(canonicalize(ABC, "cabacb"), "abc") == 4
        assert direct_count(canonicalize(ABC, "aaaaaa"), "aa") == 15
        assert avg_count(canonicalize(ABC, "abcabc"), "ab") == F(7, 3)
        assert circular_parikh_matrix(canonicalize(ABC, "cabacb")).rows[0] == (
            1,
            2,
            2,
            F(4, 3),
        )
        expected = ((1, 2, 2), (0, 1, 2), (0, 0, 1))
        assert circular_parikh_matrix(canonicalize(AB, "abab")).rows == expected
        assert circular_parikh_matrix(canonicalize(AB, "bbaa")).rows == expected


def test_criterion_2_counterexamples():
    with criterion(2, "counterexample reproduction"):
        assert avg_count(canonicalize(ABC, "acb"), "ab") == F(1, 3)
        assert avg_count(canonicalize(ABC, "cab"), "ab") == F(2, 3)
        assert avg_count(canonicalize(ABC, "abbac"), "abc") == F(2, 5)
        assert avg_count(canonicalize(ABC, "baabc"), "abc") == F(1)

        # four-letter circular word: inverse vs alternate-of-mirror
        cw = canonicalize(ABCD, "abcd")
        inv = circular_parikh_matrix(cw).inverse()
        alt = circular_parikh_matrix(mirror_class(cw)).alternate()
        assert inv.rows[0][4] == F(1, 16)
        assert alt.rows[0][4] == 0
        for i in range(5):
            for j in range(5):
                if (i, j) != (0, 4):
                    assert inv.rows[i][j] == alt.rows[i][j]

        # four-letter circular word: matrix of the square vs squared matrix
        doubled = circular_parikh_matrix(canonicalize(ABCD, "abcdabcd"))
        squared = circular_parikh_matrix(cw) ** 2
        assert doubled.rows[0][4] == 2
        assert squared.rows[0][4] == F(33, 16)

        # the M-equivalent ternary pair out of reach of both circular rules
        left = canonicalize(ABC, "aaaacbbc")
        right = canonicalize(ABC, "aaacbabc")
        assert m_equivalent(left, right)
        assert left != right
        for cw in (left, right):
            assert [a for a in find_ce1(cw) + find_ce2(cw) if a.valid] == []
            graph = rewrite_closure(cw)
            assert [n.canonical for n in graph.nodes] == [cw.canonical]
        # and the length-8 class report puts them in the same class
        report = partition_by_matrix(ABC, 8)
        key = circular_parikh_matrix(left).key()
        assert {"aaaacbbc", "aaacbabc"} <= set(report.classes[key])


def test_criterion_3_binary_closed_form():
    with criterion(3, "binary closed form, length <= 12"):
        result = run_suite("binary-closed-form", SuiteLimits(max_length=12))
        assert result.passed and result.checked == 8191  # 8190 words plus λ
        result = run_suite("distinct-count", SuiteLimits(max_length=12))
        assert result.passed
        result = run_suite("binary-mequiv", SuiteLimits(max_length=12))
        assert result.passed


def test_criterion_4_rule_iff_theorems():
    with criterion(4, "CE1/CE2 iff-theorems, |x|+|y| <= 5"):
        result = run_suite("ce1-iff", SuiteLimits(max_split=5))
        assert result.passed and result.checked == 2005
        result = run_suite("ce2-iff", SuiteLimits(max_split=5))
        assert result.passed and result.checked == 4010


def test_criterion_5_identity_suites():
    with criterion(5, "quantified identity suites, |w| <= 8"):
        for name in ("product-identity", "slender-partition", "inverse-alternate"):
            result = run_suite(name, SuiteLimits(max_length=8))
            assert result.passed, f"{name}: {result.failures}"
        result = run_suite("power", SuiteLimits(max_length=8, max_power=4))
        assert result.passed
        result = run_suite("linear-rules", SuiteLimits(max_length=8))
        assert result.passed
        result = run_suite("naive-failures")
        assert result.passed

        # set-average equals shift-average (avg_count implements the shift sum)
        index_tuples = {
            n: [t for k in range(4) for t in itertools.combinations(range(n), k)] for n in range(9)
        }
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            patterns = list(words_up_to(symbols, 3))
            for n in range(9):
                for cw in enumerate_necklaces(alphabet, n):
                    members = conjugacy_class(cw.canonical)
                    # Each member's pattern counts, tallied once.
                    tallies = [brute_counts(u, index_tuples[n]) for u in members]
                    for v in patterns:
                        class_avg = F(sum(counts[v] for counts in tallies), len(members))
                        assert avg_count(cw, v) == class_avg

        # weak ratio <=> concatenation morphism <=> commutation, |u|,|v| <= 6
        binary_words = list(words_up_to("ab", 6))
        matrices = {
            w: circular_parikh_matrix(canonicalize(AB, w)) for w in binary_words
        }
        for u in binary_words:
            for v in binary_words:
                ratio = weak_ratio(AB, u, v)
                concat = circular_parikh_matrix(canonicalize(AB, u + v))
                product = matrices[u] * matrices[v]
                assert (concat == product) == ratio
                assert (product == matrices[v] * matrices[u]) == ratio


def brute_counts(word, index_tuples):
    """Occurrences of every pattern in `word` by the definition: the letters
    at each tuple of strictly increasing indices spell one occurrence (the
    empty tuple spells λ, which occurs once)."""
    return Counter("".join(word[i] for i in idxs) for idxs in index_tuples)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "dynamic programming vs index-tuple enumeration"):
        patterns = list(words_up_to("abc", 3))
        # Each word length's index tuples, up to the longest pattern, once.
        index_tuples = {
            n: [t for k in range(4) for t in itertools.combinations(range(n), k)] for n in range(8)
        }
        for w in words_up_to("abc", 7):
            counts = brute_counts(w, index_tuples[len(w)])
            for v in patterns:
                assert count_subword(w, v) == counts[v]

        # circular matrices: class-sum route equals shift-sum route
        for n in range(8):
            for cw in enumerate_necklaces(ABC, n):
                members = conjugacy_class(cw.canonical)
                size = len(members)
                total = [[F(0)] * 4 for _ in range(4)]
                for u in members:
                    rows = parikh_matrix(ABC, u).rows
                    for i in range(4):
                        for j in range(4):
                            total[i][j] += rows[i][j]
                class_avg = UnitriangularMatrix(
                    [[e / size for e in row] for row in total]
                )
                assert circular_parikh_matrix(cw) == class_avg


def test_criterion_7_lyndon_contrast():
    with criterion(7, "distinct circular matrices, equal Lyndon-conjugate matrices"):
        first = canonicalize(ABC, "abcabc")
        second = canonicalize(ABC, "abacbc")
        assert not m_equivalent(first, second)
        assert parikh_matrix(ABC, first.canonical) == parikh_matrix(
            ABC, second.canonical
        )


def test_criterion_8_minor_search():
    with criterion(8, "minor search over ternary necklaces, length <= 10"):
        first = search_negative_minor(ABC, 10)
        second = search_negative_minor(ABC, 10)
        assert first == second  # deterministic, exploratory outcome
        if first is None:
            print("minor search result: none found")
        else:
            print(
                f"minor search result: word=[{first.word}] rows={list(first.rows)} "
                f"cols={list(first.cols)} value={first.value}"
            )
