"""The rotation kernels against brute-force per-shift sums.

Both run one generated kernel that conjugates a generalized Parikh matrix
around the word.  `_rotation_total` runs a pattern's kernel and sums the
flat entries it is given over every cyclic shift; `_rotation_sums` runs an
alphabet's ladder and sums every entry over the first shifts.  The oracles
below recount every entry of every cyclic shift from scratch with
`subword_count`, an all-positions subword DP of this file's own.  Neither
`_count` nor `_parikh_rows` can serve there: `_count` is the package's
other subword DP, and `_parikh_rows` is the ladder kernel over one shift.
"""

import itertools
import operator

import pytest

from circparikh import (
    Alphabet,
    avg_count,
    canonicalize,
    circular_parikh_matrix,
    m_equivalent,
)
from circparikh.circular import _rotation_sums, _rotation_total

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def shifts(word):
    return [word[i:] + word[:i] for i in range(len(word))] or [""]


def prefix_counts(word, pattern):
    """dp[j] counts the placements of pattern[:j]; every position is compared."""
    dp = [1] + [0] * len(pattern)
    for ch in word:
        for j in range(len(pattern) - 1, -1, -1):
            if pattern[j] == ch:
                dp[j + 1] += dp[j]
    return dp


def subword_count(word, pattern):
    return prefix_counts(word, pattern)[-1]


def count_oracle(word, pattern, first=None):
    """Per-shift sums over the first `first` shifts (all of them by default),
    as tuple rows: row i of each shift's matrix counts the prefixes of
    pattern[i:]."""
    d = len(pattern) + 1
    sums = [[0] * d for _ in range(d)]
    for u in shifts(word)[:first]:
        for i, row in enumerate(sums):
            row[i:] = map(operator.add, row[i:], prefix_counts(u, pattern[i:]))
    return tuple(map(tuple, sums))


def ladder_oracle(alphabet, word):
    """Per-shift sums of the Parikh rows: entry (i, j) of M(u) counts the
    ladder factor a_{i+1} ... a_j in u."""
    return count_oracle(word, "".join(alphabet.symbols))


def ladder(symbols, word, first=None):
    return _rotation_sums(word, Alphabet(symbols), first)


def top(pattern):
    """The flat index of entry (0, m), which `avg_count` reads."""
    return [len(pattern)]


def covering(pattern):
    """The flat indices of the entries (i, i+s), i < s, of a pattern of
    length 2s - 1, which `product_identity_check` reads; none otherwise."""
    d = len(pattern) + 1
    s = d // 2
    return [i * d + i + s for i in range(s)] if len(pattern) % 2 else []


def singles(pattern):
    return [[e] for e in range((len(pattern) + 1) ** 2)]


def entry_sets(pattern):
    return [top(pattern), covering(pattern), *singles(pattern)]


def picked(sums, entries):
    """The sum of the flat `entries` of a matrix given by its rows."""
    d = len(sums)
    return sum(sums[e // d][e % d] for e in entries)


def total(word, pattern, entries):
    return _rotation_total(word, pattern, entries)


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
    expected = count_oracle(word, pattern)
    for entries in entry_sets(pattern):
        assert total(word, pattern, entries) == picked(expected, entries), entries


@hypothesis.given(word_and_pattern(), st.data())
def test_shift_count_sums_the_first_shifts(case, data):
    symbols, word, _ = case
    hypothesis.assume(word)
    first = data.draw(st.integers(0, len(word)), label="shifts")
    assert ladder(symbols, word, first) == count_oracle(word, symbols, first)


@st.composite
def word_with_runs(draw):
    # Runs of one letter, where a ladder letter's rotation repeats.
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    runs = draw(st.lists(st.tuples(st.sampled_from(symbols), st.integers(1, 4)), min_size=1))
    return symbols, "".join(x * k for x, k in runs)[:24]


@hypothesis.given(word_with_runs())
def test_every_shift_count_matches_the_oracle(case):
    # s = 0 sums no shift at all, so every entry is 0, the diagonal too.
    symbols, word = case
    for first, expected in enumerate(first_shift_sums(word, symbols)):
        assert ladder(symbols, word, first) == expected, first


@st.composite
def power_of_a_root(draw):
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    root = draw(st.text(alphabet=symbols, min_size=1, max_size=12))
    return symbols, root, draw(st.integers(1, 5))


@hypothesis.given(power_of_a_root())
def test_one_period_of_a_power_is_a_pth_of_its_sums(case):
    # rot_{k+|u|}(u^p) = rot_k(u^p): the |u| p shifts repeat the first |u| p times.
    symbols, root, p = case
    period = ladder(symbols, root * p, len(root))
    assert tuple(tuple(p * e for e in row) for row in period) == count_oracle(root * p, symbols)


@hypothesis.given(word_and_pattern())
def test_ladder_kernel_matches_per_shift_parikh_rows(case):
    symbols, word, _ = case
    alphabet = Alphabet(symbols)
    assert _rotation_sums(word, alphabet) == ladder_oracle(alphabet, word)


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
            assert _rotation_sums(word, alphabet) == ladder_oracle(alphabet, word)
            for pattern in patterns:
                expected = count_oracle(word, pattern)
                for entries in entry_sets(pattern):
                    got = _rotation_total(word, pattern, entries)
                    assert got == picked(expected, entries), (word, pattern, entries)


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
    out = [((0,) * d,) * d]
    for u in shifts(word):
        one = count_oracle(u, pattern, 1)
        out.append(tuple(tuple(map(operator.add, *rows)) for rows in zip(out[-1], one)))
    return out


def test_every_shift_count_exhaustive_small():
    # Adjacent repeated letters in the pattern are where the kernel's skipped
    # letter-count entries (k, k+1) and (k+1, k+2) meet.  Every binary
    # pattern up to length 4 over every word up to length 7, λ included,
    # for the entries its callers read and each entry alone.
    patterns = list(words_up_to("ab", 4))
    for word in words_up_to("ab", 7):
        for pattern in patterns:
            expected = count_oracle(word, pattern)
            for entries in entry_sets(pattern):
                got = _rotation_total(word, pattern, entries)
                assert got == picked(expected, entries), (word, pattern, entries)


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
    # The alphabet's ladder kernel over every shift count 1..n and the
    # default, and a pattern's kernel over all shifts, for the
    # entries its callers read and each entry alone; λ sums to the identity.
    alphabet, word, pattern = case
    v = "".join(alphabet.symbols)
    expected = first_shift_sums(word, v)
    assert _rotation_sums(word, alphabet) == expected[-1]
    for first in range(1, len(word) + 1):
        assert _rotation_sums(word, alphabet, first) == expected[first], first
    expected = first_shift_sums(word, pattern)[-1]
    for entries in entry_sets(pattern):
        assert total(word, pattern, entries) == picked(expected, entries), entries


def test_shift_counts_beyond_the_word_raise():
    # Two shifts of ab exist; four used to skip the missing steps silently.
    assert ladder("ab", "ab", 2) == count_oracle("ab", "ab")
    for first in (3, 4, -1):
        with pytest.raises(ValueError, match="shifts must be in 0..2"):
            ladder("ab", "ab", first)


# Patterns with a repeated letter (aa, aba, abca), the empty one, the
# alphabet's covering, and one with a letter outside the alphabet (d or e).
ENTRY_CASES = [
    ("ab", 7, ["", "aa", "aba", "abca", "bdb"]),
    ("abc", 7, ["", "aa", "aba", "abca", "abcab", "bdb"]),
    ("abcd", 6, ["", "aa", "aba", "abca", "abcdabc", "beb"]),
]


@pytest.mark.parametrize("symbols, max_len, patterns", ENTRY_CASES, ids=["ab", "abc", "abcd"])
def test_entry_totals_exhaustive_small(symbols, max_len, patterns):
    # Conjugate words share their sums, recounted once per class.  Each
    # entry alone is checked on the words below the longest length.
    for pattern in patterns:
        sums = {}
        for word in words_up_to(symbols, max_len):
            key = min(shifts(word))
            if key not in sums:
                sums[key] = count_oracle(word, pattern)
            cases = entry_sets(pattern)[: None if len(word) < max_len else 2]
            for entries in cases:
                got = _rotation_total(word, pattern, entries)
                assert got == picked(sums[key], entries), (word, pattern, entries)


@st.composite
def long_word_and_entries(draw):
    symbols = draw(st.sampled_from(["ab", "abc", "abcd"]))
    word = draw(st.text(alphabet=symbols, max_size=300))
    pattern = draw(st.text(alphabet=symbols + "e", max_size=5))
    d = len(pattern) + 1
    entries = draw(st.lists(st.integers(0, d * d - 1), max_size=d))
    return word, pattern, draw(st.sampled_from([top(pattern), covering(pattern), entries]))


def entry_oracle(word, pattern, entries):
    """The flat `entries` summed over every shift, each counted afresh."""
    d = len(pattern) + 1
    factors = [pattern[e // d : e % d] for e in entries if e // d <= e % d]
    return sum(subword_count(u, f) for u in shifts(word) for f in factors)


@hypothesis.given(long_word_and_entries())
def test_entry_totals_on_long_words(case):
    word, pattern, entries = case
    assert total(word, pattern, entries) == entry_oracle(word, pattern, entries)


def test_avg_count_of_the_empty_word():
    # λ is its own single shift: |λ|_λ = 1 and |λ|_v = 0 for v ≠ λ.
    empty = canonicalize(Alphabet("abc"), "")
    assert avg_count(empty, "") == 1
    for pattern in ("a", "ab", "cab", "abca"):
        assert avg_count(empty, pattern) == 0
    assert total("", "", [0]) == 1
    assert total("", "aba", [0, 5, 3]) == 2  # two diagonal entries and (0, 3)
