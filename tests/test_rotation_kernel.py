"""The rotation kernel against brute-force per-shift sums.

`_rotation_sums` conjugates one generalized Parikh matrix around the word,
running a pattern compiled by `_program`; the oracles below recount every
entry of every cyclic shift from scratch with `subword_count`, an
all-positions subword DP of this file's own.  Neither `_count` nor
`_parikh_rows` can serve there: `_count` is the package's other subword
DP, and `_parikh_rows` reads the alphabet's compiled ladder, which the
kernel runs too.
"""

import itertools

import pytest

from circparikh import Alphabet, canonicalize, circular_parikh_matrix, m_equivalent
from circparikh.circular import _rotation_sums
from circparikh.words import _program

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def shifts(word):
    return [word[i:] + word[:i] for i in range(len(word))] or [""]


def subword_count(word, pattern):
    # dp[j] counts the placements of pattern[:j]; every position is compared.
    dp = [1] + [0] * len(pattern)
    for ch in word:
        for j in range(len(pattern) - 1, -1, -1):
            if pattern[j] == ch:
                dp[j + 1] += dp[j]
    return dp[-1]


def count_oracle(word, pattern, first=None):
    """Per-shift sums over the first `first` shifts (all of them by default)."""
    m = len(pattern)
    members = shifts(word)[:first]
    return [
        [
            sum(subword_count(u, pattern[i:j]) for u in members) if i <= j else 0
            for j in range(m + 1)
        ]
        for i in range(m + 1)
    ]


def ladder_oracle(alphabet, word):
    """Per-shift sums of the Parikh rows: entry (i, j) of M(u) counts the
    ladder factor a_{i+1} ... a_j in u."""
    return count_oracle(word, "".join(alphabet.symbols))


def kernel(word, pattern, first=None):
    return _rotation_sums(word, _program(pattern), first)


def words_up_to(symbols, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


@st.composite
def word_and_pattern(draw):
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    word = draw(st.text(alphabet=symbols, max_size=40))
    return symbols, word, draw(st.text(alphabet=symbols, max_size=6))


@hypothesis.given(word_and_pattern())
def test_kernel_matches_per_shift_counts(case):
    _, word, pattern = case
    assert kernel(word, pattern) == count_oracle(word, pattern)


@hypothesis.given(word_and_pattern(), st.data())
def test_shift_count_sums_the_first_shifts(case, data):
    _, word, pattern = case
    hypothesis.assume(word)
    first = data.draw(st.integers(0, len(word)), label="shifts")
    assert kernel(word, pattern, first) == count_oracle(word, pattern, first)


@st.composite
def word_and_repeating_pattern(draw):
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    base = draw(st.text(alphabet=symbols, min_size=1, max_size=5))
    at = draw(st.integers(0, len(base)))
    pattern = base[:at] + draw(st.sampled_from(base)) + base[at:]
    return draw(st.text(alphabet=symbols, min_size=1, max_size=24)), pattern


@hypothesis.given(word_and_repeating_pattern())
def test_every_shift_count_matches_the_oracle(case):
    # s = 0 sums no shift at all, so every entry is 0, the diagonal too.
    word, pattern = case
    for first in range(len(word) + 1):
        assert kernel(word, pattern, first) == count_oracle(word, pattern, first), first


@st.composite
def power_and_pattern(draw):
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    root = draw(st.text(alphabet=symbols, min_size=1, max_size=12))
    return root, draw(st.integers(1, 5)), draw(st.text(alphabet=symbols, max_size=6))


@hypothesis.given(power_and_pattern())
def test_one_period_of_a_power_is_a_pth_of_its_sums(case):
    # rot_{k+|u|}(u^p) = rot_k(u^p): the |u| p shifts repeat the first |u| p times.
    root, p, pattern = case
    period = kernel(root * p, pattern, len(root))
    assert [[p * e for e in row] for row in period] == count_oracle(root * p, pattern)


@hypothesis.given(word_and_pattern())
def test_ladder_kernel_matches_per_shift_parikh_rows(case):
    symbols, word, _ = case
    alphabet = Alphabet(symbols)
    assert _rotation_sums(word, alphabet._ladder) == ladder_oracle(alphabet, word)


@hypothesis.given(word_and_pattern(), st.text(alphabet="abcd", max_size=12))
def test_m_equivalent_is_matrix_equality(case, other):
    symbols, word, _ = case
    alphabet = Alphabet(symbols)
    other = "".join(ch for ch in other if ch in symbols)
    cw1, cw2 = canonicalize(alphabet, word), canonicalize(alphabet, other)
    assert m_equivalent(cw1, cw2) == (circular_parikh_matrix(cw1) == circular_parikh_matrix(cw2))


def test_kernel_exhaustive_small():
    for symbols, max_len in (("ab", 7), ("abc", 5)):
        alphabet = Alphabet(symbols)
        patterns = list(words_up_to(symbols, 3))
        for word in words_up_to(symbols, max_len):
            assert _rotation_sums(word, alphabet._ladder) == ladder_oracle(alphabet, word)
            for pattern in patterns:
                assert kernel(word, pattern) == count_oracle(word, pattern), (word, pattern)


def test_m_equivalent_exhaustive_small_across_lengths():
    for symbols, max_len in (("ab", 6), ("abc", 4)):
        alphabet = Alphabet(symbols)
        classes = {canonicalize(alphabet, w) for w in words_up_to(symbols, max_len)}
        matrices = {cw: circular_parikh_matrix(cw) for cw in classes}
        for cw1, cw2 in itertools.product(classes, repeat=2):
            assert m_equivalent(cw1, cw2) == (matrices[cw1] == matrices[cw2])


def first_shift_sums(word, pattern):
    """count_oracle(word, pattern, first) for first = 0, 1, ..., |word|."""
    d = len(pattern) + 1
    total = [[0] * d for _ in range(d)]
    out = [[row.copy() for row in total]]
    for u in shifts(word):
        for i in range(d):
            for j in range(i, d):
                total[i][j] += subword_count(u, pattern[i:j])
        out.append([row.copy() for row in total])
    return out


def test_every_shift_count_exhaustive_small():
    # Adjacent repeated letters in the pattern are where the kernel's skipped
    # letter-count entries (k, k+1) and (k+1, k+2) meet.
    patterns = list(words_up_to("ab", 4))
    for word in words_up_to("ab", 7):
        if not word:  # λ sums to the identity for every shift count
            continue
        for pattern in patterns:
            for first, expected in enumerate(first_shift_sums(word, pattern)):
                assert kernel(word, pattern, first) == expected, (word, pattern, first)


@st.composite
def ordered_case(draw):
    # An alphabet out of code-point order, and a pattern with a repeated letter.
    alphabet = Alphabet.parse(draw(st.sampled_from(["c,a,b", "b,d,a,c"])))
    symbols = "".join(alphabet.symbols)
    base = draw(st.text(alphabet=symbols, min_size=1, max_size=6))
    at = draw(st.integers(0, len(base)))
    pattern = base[:at] + draw(st.sampled_from(base)) + base[at:]
    return alphabet, draw(st.text(alphabet=symbols, max_size=16)), pattern


@hypothesis.given(ordered_case())
def test_compiled_programs_match_the_oracle_for_every_shift_count(case):
    # The alphabet's precompiled ladder and a pattern compiled per call, over
    # every shift count 1..n and the default; λ sums to the identity.
    alphabet, word, pattern = case
    for program, v in ((alphabet._ladder, "".join(alphabet.symbols)), (_program(pattern), pattern)):
        expected = first_shift_sums(word, v)
        assert _rotation_sums(word, program) == expected[-1], v
        for first in range(1, len(word) + 1):
            assert _rotation_sums(word, program, first) == expected[first], (v, first)


def test_shift_counts_beyond_the_word_raise():
    # Two shifts of ab exist; four used to skip the missing steps silently.
    assert kernel("ab", "ab", 2) == count_oracle("ab", "ab")
    for first in (3, 4, -1):
        with pytest.raises(ValueError, match="shifts must be in 0..2"):
            kernel("ab", "ab", first)
