import itertools

import pytest

from circparikh import (
    Alphabet,
    UnitriangularMatrix,
    canonicalize,
    count_subword,
    direct_count,
    inverse_identity_check,
    mirror,
    parikh_matrix,
    parikh_vector,
    permutation_identity_check,
    project,
)

ABC = Alphabet("abc")
AB = Alphabet("ab")


def brute_count(word, pattern):
    """Independent oracle: enumerate every strictly increasing index tuple."""
    if not pattern:
        return 1
    return sum(
        1
        for idxs in itertools.combinations(range(len(word)), len(pattern))
        if all(word[i] == ch for i, ch in zip(idxs, pattern))
    )


def words_up_to(symbols, max_len):
    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


class TestAlphabet:
    def test_parse_forms(self):
        assert Alphabet.parse("a,b,c").symbols == ("a", "b", "c")
        assert Alphabet.parse("abc").symbols == ("a", "b", "c")

    def test_order_is_given_order_not_codepoint(self):
        weird = Alphabet.parse("c,a")
        assert weird.index("c") == 0
        assert weird.index("a") == 1

    def test_rejects_bad_alphabets(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["ab"])

    def test_index_of_a_foreign_symbol_names_it(self):
        with pytest.raises(ValueError, match=r"^symbol 'x' is not in alphabet a,b,c$"):
            ABC.index("x")

    def test_not_equal_to_its_spec(self):
        assert (ABC == "abc") is False
        assert ABC == Alphabet.parse("a,b,c")

    def test_validate_names_offending_symbol(self):
        with pytest.raises(ValueError, match="'x'"):
            ABC.validate("axb")
        with pytest.raises(ValueError, match="'z'"):
            ABC.validate("bzcyx")


class TestCountSubword:
    def test_paper_examples(self):
        assert count_subword("bcbcc", "bc") == 5
        assert count_subword("aabcbc", "abc") == 6

    def test_empty_pattern_counts_once(self):
        for w in ("", "a", "bcbcc"):
            assert count_subword(w, "") == 1

    def test_full_match(self):
        assert count_subword("abc", "abc") == 1

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            count_subword("abd", "ab", ABC)
        with pytest.raises(ValueError):
            count_subword("ab", "ad", ABC)

    def test_matches_brute_force(self):
        for w in words_up_to("abc", 5):
            for v in words_up_to("abc", 2):
                assert count_subword(w, v) == brute_count(w, v)
        # spot-check longer patterns
        for w in ("aabcbc", "cabacb", "ccabab"):
            for v in words_up_to("abc", 3):
                assert count_subword(w, v) == brute_count(w, v)

    def test_patterns_that_repeat_letters_match_brute_force(self):
        # A repeated letter advances several positions at once; they must be
        # visited from the right, or a letter is used twice in one placement.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def word_and_pattern(draw):
            symbols = draw(st.sampled_from(["ab", "abc"]))
            base = draw(st.text(symbols, min_size=1, max_size=5))
            at = draw(st.integers(0, len(base)))
            pattern = base[:at] + draw(st.sampled_from(base)) + base[at:]
            return draw(st.text(symbols, max_size=12)), pattern

        @hypothesis.given(word_and_pattern())
        def check(case):
            word, pattern = case
            assert count_subword(word, pattern) == brute_count(word, pattern)

        check()

    def test_direct_count_sums_brute_force_over_distinct_rotations(self):
        # The pattern's rotations are read together: λ, repeated letters and
        # periodic patterns, whose rotations repeat, each counted once.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        periodic = st.sampled_from(["", "aa", "abab", "abcabc"])
        patterns = st.one_of(st.text("abc", max_size=5), periodic)

        @hypothesis.given(st.text("abc", max_size=10), patterns)
        def check(word, pattern):
            cw = canonicalize(ABC, word)
            distinct = {pattern[i:] + pattern[:i] for i in range(len(pattern))} or {""}
            assert direct_count(cw, pattern) == sum(brute_count(cw.canonical, u) for u in distinct)

        check()


class TestParikhVector:
    def test_examples(self):
        assert parikh_vector(ABC, "bacbc") == (1, 2, 2)
        assert parikh_vector(ABC, "") == (0, 0, 0)
        assert parikh_vector(ABC, "cabacb") == (2, 2, 2)

    def test_counts_sum_to_length(self):
        for w in words_up_to("abc", 4):
            assert sum(parikh_vector(ABC, w)) == len(w)


class TestParikhMatrix:
    def test_paper_example(self):
        assert parikh_matrix(ABC, "bacbc").rows == (
            (1, 1, 1, 1),
            (0, 1, 2, 3),
            (0, 0, 1, 2),
            (0, 0, 0, 1),
        )

    def test_empty_word_is_identity(self):
        assert parikh_matrix(ABC, "") == UnitriangularMatrix.identity(4)
        assert parikh_matrix(AB, "") == UnitriangularMatrix.identity(3)

    def test_entries_are_ladder_counts(self):
        syms = ABC.symbols
        for w in words_up_to("abc", 5):
            matrix = parikh_matrix(ABC, w)
            for i in range(3):
                for j in range(i, 3):
                    ladder = "".join(syms[i : j + 1])
                    assert matrix.rows[i][j + 1] == brute_count(w, ladder)

    def test_second_diagonal_is_parikh_vector(self):
        for w in ("bacbc", "cabacb", "aaa", ""):
            matrix = parikh_matrix(ABC, w)
            vec = parikh_vector(ABC, w)
            assert tuple(matrix.rows[i][i + 1] for i in range(3)) == vec

    def test_morphism_law(self):
        for u in words_up_to("abc", 3):
            for v in words_up_to("abc", 3):
                assert parikh_matrix(ABC, u + v) == parikh_matrix(
                    ABC, u
                ) * parikh_matrix(ABC, v)

    def test_inverse_is_alternate_of_mirror(self):
        # linear law, exhaustive over ternary words of length <= 8
        identity = UnitriangularMatrix.identity(4)
        for w in words_up_to("abc", 8):
            product = parikh_matrix(ABC, w) * parikh_matrix(ABC, mirror(w)).alternate()
            assert product == identity


class TestMirror:
    def test_examples(self):
        assert mirror("bacbc") == "cbcab"
        assert mirror("") == ""
        assert mirror("abc") == "cba"

    def test_involution(self):
        for w in words_up_to("abc", 4):
            assert mirror(mirror(w)) == w


class TestProject:
    def test_examples(self):
        assert project(ABC, "cabacb", "ab") == "abab"
        assert project(ABC, "cabacb", ABC.symbols) == "cabacb"
        assert project(ABC, "abc", "ab") == "ab"

    def test_rejects_foreign_target(self):
        with pytest.raises(ValueError):
            project(ABC, "abc", "ad")

    def test_projection_preserves_counts_of_projected_patterns(self):
        for keep in ("ab", "ac", "bc"):
            for w in words_up_to("abc", 5):
                image = project(ABC, w, keep)
                for v in words_up_to(keep, 3):
                    assert count_subword(w, v) == count_subword(image, v)


class TestIdentities:
    def test_inverse_identity_examples(self):
        assert inverse_identity_check(ABC, "bacbc")
        assert inverse_identity_check(ABC, "")

    def test_inverse_identity_exhaustive(self):
        for w in words_up_to("abc", 6):
            assert inverse_identity_check(ABC, w)

    def test_inverse_identity_needs_ternary(self):
        with pytest.raises(ValueError):
            inverse_identity_check(AB, "ab")

    def test_permutation_identity_examples(self):
        # cabacb: six permutation counts sum to 2*2*2
        total = sum(
            count_subword("cabacb", "".join(p))
            for p in itertools.permutations("abc")
        )
        assert total == 8
        assert permutation_identity_check(ABC, "cabacb")
        assert permutation_identity_check(ABC, "abab")  # a letter missing: 0 == 0
        assert sum(
            count_subword("bacbc", "".join(p)) for p in itertools.permutations("abc")
        ) == 1 * 2 * 2

    def test_permutation_identity_exhaustive(self):
        for w in words_up_to("abc", 6):
            assert permutation_identity_check(ABC, w)
        for w in words_up_to("ab", 8):
            assert permutation_identity_check(AB, w)

    def test_permutation_identity_larger_alphabet(self):
        abcd = Alphabet("abcd")
        for w in ("abcd", "ddccbbaa", "badcab", ""):
            assert permutation_identity_check(abcd, w)
