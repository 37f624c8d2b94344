import itertools
import math
from fractions import Fraction

import pytest

from circparikh import (
    Alphabet,
    UnitriangularMatrix,
    avg_count,
    binary_closed_form,
    canonicalize,
    circular_inverse_alternate_check,
    circular_parikh_matrix,
    circular_power_check,
    conjugacy_class,
    count_subword,
    cyclic_shift,
    direct_count,
    m_equivalent,
    mirror_class,
    parikh_matrix,
    primitive_root,
    product_identity_check,
    slender_partition_check,
    weak_ratio,
)

ABC = Alphabet("abc")
AB = Alphabet("ab")
F = Fraction


def words_up_to(symbols, max_len):
    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


class TestShiftsAndClasses:
    def test_cyclic_shift(self):
        assert cyclic_shift("cabacb", 1) == "abacbc"
        assert cyclic_shift("cabacb", 0) == "cabacb"
        assert cyclic_shift("abab", 2) == "abab"
        assert cyclic_shift("abc", 7) == "bca"  # reduced mod length
        assert cyclic_shift("", 3) == ""

    def test_conjugacy_class_of_cabacb(self):
        assert conjugacy_class("cabacb") == [
            "cabacb",
            "abacbc",
            "bacbca",
            "acbcab",
            "cbcaba",
            "bcabac",
        ]

    def test_conjugacy_class_degenerate(self):
        assert conjugacy_class("aaaaaa") == ["aaaaaa"]
        assert conjugacy_class("abab") == ["abab", "baba"]
        assert conjugacy_class("") == [""]

    def test_primitive_root(self):
        assert primitive_root("abab") == "ab"
        assert primitive_root("aaaaaa") == "a"
        assert primitive_root("abcabcabc") == "abc"
        assert primitive_root("aab") == "aab"
        assert primitive_root("") == ""


class TestCanonicalize:
    def test_examples(self):
        cw = canonicalize(ABC, "cabacb")
        assert cw.canonical == "abacbc"
        assert cw.class_size == 6
        assert cw.period == "abacbc"
        assert canonicalize(AB, "bbaa").canonical == "aabb"
        trivial = canonicalize(ABC, "aaaaaa")
        assert (trivial.canonical, trivial.period, trivial.class_size) == (
            "aaaaaa",
            "a",
            1,
        )

    def test_empty_word(self):
        cw = canonicalize(ABC, "")
        assert (cw.canonical, cw.class_size, cw.period) == ("", 1, "")

    def test_canonical_is_least_rotation(self):
        for w in words_up_to("abc", 7):
            cw = canonicalize(ABC, w)
            rotations = [w[i:] + w[:i] for i in range(len(w))] or [""]
            assert cw.canonical == min(rotations)
            assert cw.class_size == len(set(rotations))

    def test_conjugates_collapse(self):
        for w in words_up_to("abc", 6):
            expected = canonicalize(ABC, w)
            for i in range(len(w)):
                assert canonicalize(ABC, cyclic_shift(w, i)) == expected

    def test_respects_alphabet_order(self):
        # with order c < a, rotations starting with c are least
        weird = Alphabet.parse("c,a")
        assert canonicalize(weird, "ac").canonical == "ca"

    def test_str_form(self):
        assert str(canonicalize(ABC, "cabacb")) == "[abacbc]"


class TestDirectCount:
    def test_paper_examples(self):
        assert direct_count(canonicalize(ABC, "cabacb"), "abc") == 4
        assert direct_count(canonicalize(ABC, "aaaaaa"), "aa") == 15
        assert direct_count(canonicalize(ABC, "aab"), "aa") == 1

    def test_representative_independence(self):
        assert direct_count(canonicalize(ABC, "bacbca"), "abc") == 4
        for w in ("cabacb", "abcab", "ccba"):
            base = None
            for u in conjugacy_class(w):
                total = sum(
                    count_subword(u, q) for q in conjugacy_class("abc")
                )
                base = total if base is None else base
                assert total == base

    def test_power_pattern_is_binomial(self):
        for w in words_up_to("abc", 6):
            cw = canonicalize(ABC, w)
            na = w.count("a")
            for k in range(1, 4):
                assert direct_count(cw, "a" * k) == math.comb(na, k)

    def test_longer_pattern_allowed(self):
        assert direct_count(canonicalize(ABC, "ab"), "abc") == 0

    def test_empty_pattern(self):
        assert direct_count(canonicalize(ABC, "abc"), "") == 1
        assert direct_count(canonicalize(ABC, ""), "") == 1
        assert direct_count(canonicalize(ABC, ""), "a") == 0


class TestAvgCount:
    def test_paper_examples(self):
        assert avg_count(canonicalize(ABC, "abcabc"), "ab") == F(7, 3)
        assert avg_count(canonicalize(ABC, "acb"), "ab") == F(1, 3)
        assert avg_count(canonicalize(ABC, "cab"), "ab") == F(2, 3)

    def test_projection_does_not_preserve_circular_counts(self):
        # the count in [abc] differs from the count in the projected word [ab]
        # (class average of {ab, ba} is 1/2, matching the binary closed form)
        assert avg_count(canonicalize(ABC, "abc"), "ab") == F(2, 3)
        assert avg_count(canonicalize(AB, "ab"), "ab") == F(1, 2)
        assert avg_count(canonicalize(ABC, "abc"), "ab") != avg_count(
            canonicalize(AB, "ab"), "ab"
        )

    def test_single_letters_are_plain_counts(self):
        for w in words_up_to("abc", 6):
            cw = canonicalize(ABC, w)
            for s in "abc":
                assert avg_count(cw, s) == w.count(s)

    def test_empty_circular_word(self):
        assert avg_count(canonicalize(ABC, ""), "") == 1
        assert avg_count(canonicalize(ABC, ""), "ab") == 0

    def test_class_average_equals_shift_average(self):
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            for w in words_up_to(symbols, 6):
                cw = canonicalize(alphabet, w)
                members = conjugacy_class(w)
                for v in words_up_to(symbols, 3):
                    class_avg = F(
                        sum(count_subword(u, v) for u in members), len(members)
                    )
                    assert avg_count(cw, v) == class_avg


def class_sum_matrix(cw):
    """Oracle: average the linear Parikh matrices over the distinct class."""
    members = conjugacy_class(cw.canonical)
    d = cw.alphabet.size + 1
    total = [[F(0)] * d for _ in range(d)]
    for u in members:
        rows = parikh_matrix(cw.alphabet, u).rows
        for i in range(d):
            for j in range(d):
                total[i][j] += rows[i][j]
    size = len(members)
    return UnitriangularMatrix([[e / size for e in row] for row in total])


class TestCircularParikhMatrix:
    def test_paper_example(self):
        matrix = circular_parikh_matrix(canonicalize(ABC, "cabacb"))
        assert matrix.rows == (
            (1, 2, 2, F(4, 3)),
            (0, 1, 2, 2),
            (0, 0, 1, 2),
            (0, 0, 0, 1),
        )

    def test_binary_ambiguous_pair(self):
        expected = ((1, 2, 2), (0, 1, 2), (0, 0, 1))
        assert circular_parikh_matrix(canonicalize(AB, "abab")).rows == expected
        assert circular_parikh_matrix(canonicalize(AB, "bbaa")).rows == expected

    def test_empty_is_identity(self):
        assert circular_parikh_matrix(canonicalize(ABC, "")) == (
            UnitriangularMatrix.identity(4)
        )

    def test_entries_are_avg_counts(self):
        syms = ABC.symbols
        for w in ("cabacb", "abcbc", "aacc", "b"):
            cw = canonicalize(ABC, w)
            matrix = circular_parikh_matrix(cw)
            for i in range(3):
                for j in range(i, 3):
                    assert matrix.rows[i][j + 1] == avg_count(
                        cw, "".join(syms[i : j + 1])
                    )

    def test_matches_class_sum_oracle(self):
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            for w in words_up_to(symbols, 6):
                cw = canonicalize(alphabet, w)
                assert circular_parikh_matrix(cw) == class_sum_matrix(cw)


class TestBinaryClosedForm:
    def test_examples(self):
        assert binary_closed_form(2, 2).rows[0][2] == 2
        assert binary_closed_form(0, 5).rows[0][2] == 0
        assert binary_closed_form(1, 1).rows == (
            (1, 1, F(1, 2)),
            (0, 1, 1),
            (0, 0, 1),
        )
        assert binary_closed_form(1, 1) == circular_parikh_matrix(
            canonicalize(AB, "ab")
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binary_closed_form(-1, 0)

    def test_exhaustive_binary(self):
        for w in words_up_to("ab", 9):
            cw = canonicalize(AB, w)
            assert circular_parikh_matrix(cw) == binary_closed_form(
                w.count("a"), w.count("b")
            )


class TestMEquivalence:
    def test_examples(self):
        assert m_equivalent(canonicalize(AB, "abab"), canonicalize(AB, "bbaa"))
        assert not m_equivalent(canonicalize(ABC, "acb"), canonicalize(ABC, "cab"))
        cw = canonicalize(ABC, "cabacb")
        assert m_equivalent(cw, cw)
        assert m_equivalent(
            canonicalize(ABC, "aaaacbbc"), canonicalize(ABC, "aaacbabc")
        )

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            m_equivalent(canonicalize(AB, "ab"), canonicalize(ABC, "ab"))


class TestInverseAlternate:
    def test_exhaustive_small(self):
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            for w in words_up_to(symbols, 6):
                assert circular_inverse_alternate_check(canonicalize(alphabet, w))

    def test_empty(self):
        assert circular_inverse_alternate_check(canonicalize(ABC, ""))

    def test_four_letters_out_of_contract(self):
        abcd = Alphabet("abcd")
        cw = canonicalize(abcd, "abcd")
        with pytest.raises(ValueError):
            circular_inverse_alternate_check(cw)
        # the raw comparison genuinely fails at the top-right entry
        inv = circular_parikh_matrix(cw).inverse()
        alt = circular_parikh_matrix(mirror_class(cw)).alternate()
        assert inv != alt
        assert inv.rows[0][4] == F(1, 16)
        assert alt.rows[0][4] == 0


class TestPowerCheck:
    def test_examples(self):
        assert circular_power_check(canonicalize(AB, "ab"), 2)
        both = circular_parikh_matrix(canonicalize(AB, "abab"))
        assert both.rows == ((1, 2, 2), (0, 1, 2), (0, 0, 1))
        for w in ("ab", "abc", "cabacb", ""):
            alphabet = ABC
            assert circular_power_check(canonicalize(alphabet, w), 1)

    def test_four_letters_out_of_contract(self):
        abcd = Alphabet("abcd")
        cw = canonicalize(abcd, "abcd")
        with pytest.raises(ValueError):
            circular_power_check(cw, 2)
        squared = circular_parikh_matrix(cw) ** 2
        doubled = circular_parikh_matrix(canonicalize(abcd, "abcdabcd"))
        assert doubled != squared
        assert doubled.rows[0][4] == 2
        assert squared.rows[0][4] == F(33, 16)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            circular_power_check(canonicalize(AB, "ab"), 0)

    @pytest.mark.parametrize("p", [2.0, True])
    def test_rejects_non_integer_power(self, p):
        # Neither a float nor a bool, an int subclass, is a power.
        with pytest.raises(ValueError, match="power must be a positive integer"):
            circular_power_check(canonicalize(AB, "ab"), p)

    def test_exhaustive_small(self):
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            for w in words_up_to(symbols, 5):
                cw = canonicalize(alphabet, w)
                for p in range(1, 4):
                    assert circular_power_check(cw, p)


class TestWeakRatio:
    def test_examples(self):
        assert weak_ratio(AB, "ab", "ab")
        assert weak_ratio(AB, "ab", "ba")
        assert not weak_ratio(AB, "a", "b")

    def test_needs_binary(self):
        with pytest.raises(ValueError):
            weak_ratio(ABC, "ab", "ba")

    def test_concatenation_and_commutation_follow_from_weak_ratio(self):
        m = lambda w: circular_parikh_matrix(canonicalize(AB, w))
        assert m("abba") == m("ab") * m("ba")
        assert m("ab") != m("a") * m("b")
        for u, v in (("ab", "ba"), ("a", "b"), ("aab", "ab"), ("", "ab")):
            wr = weak_ratio(AB, u, v)
            assert (m(u + v) == m(u) * m(v)) == wr
            assert (m(u) * m(v) == m(v) * m(u)) == wr


class TestQuantifiedIdentities:
    def test_product_identity(self):
        cw = canonicalize(ABC, "abcabc")
        perm_sum = sum(
            avg_count(cw, "".join(p)) for p in itertools.permutations("abc")
        )
        assert perm_sum == 8
        assert product_identity_check(cw)
        assert product_identity_check(canonicalize(ABC, "abab"))  # no c: 0 == 0
        assert product_identity_check(canonicalize(ABC, "cabacb"))

    def test_slender_partition(self):
        cw = canonicalize(ABC, "cabacb")
        assert direct_count(cw, "abc") + direct_count(cw, "acb") == 8
        assert slender_partition_check(cw)
        assert slender_partition_check(canonicalize(ABC, "aab"))
        for w in words_up_to("ab", 8):
            cw = canonicalize(AB, w)
            assert direct_count(cw, "ab") == w.count("a") * w.count("b")
            assert slender_partition_check(cw)

    def test_both_exhaustive_small(self):
        for symbols, alphabet in (("ab", AB), ("abc", ABC)):
            for w in words_up_to(symbols, 6):
                cw = canonicalize(alphabet, w)
                assert product_identity_check(cw)
                assert slender_partition_check(cw)
