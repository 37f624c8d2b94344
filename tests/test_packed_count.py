"""The packed subword-count table against brute force.

`words._table` packs the DP of every pattern into one integer, lanes of
one width each, and `words._read` advances every lane in one shift-and-add
per letter.  `brute_counts` below counts subwords by listing every choice
of positions with `itertools.combinations`, sharing no code with the
table: exhaustively at small sizes, on unary words whose counts fill a
lane to its bound, and on drawn words with `hypothesis`.
"""

import itertools
import math
from collections import Counter

import pytest

from circparikh import words

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def brute_counts(word, max_len):
    """The number of occurrences of each subword of `word` of length at most
    `max_len`, one per choice of positions."""
    counts = Counter()
    for k in range(max_len + 1):
        counts.update(map("".join, itertools.combinations(word, k)))
    return counts


def patterns_up_to(symbols, max_len):
    return ["".join(t) for k in range(max_len + 1) for t in itertools.product(symbols, repeat=k)]


# Every pattern up to length 4 over abc, so the binary words also meet
# patterns with a letter they lack.
PATTERNS = patterns_up_to("abc", 4)


@pytest.mark.parametrize("symbols", ["ab", "abc"])
def test_count_matches_brute_force_exhaustively(symbols):
    # Every word up to length 8, all 121 patterns in one read.
    for n in range(9):
        for letters in itertools.product(symbols, repeat=n):
            word = "".join(letters)
            brute = brute_counts(word, 4)
            assert words._count(word, *PATTERNS) == [brute[p] for p in PATTERNS], word


def test_lanes_hold_their_bound_without_carrying():
    # In a^n the prefix a^j of a^m occurs C(n, j) times, and below n = 16 the
    # lane j = n // 2 of a^8 reaches C(n, n // 2), the bound the lane width is
    # taken from; one bit less, or a carry into the next lane or block,
    # changes some count.
    patterns = ["a" * m for m in range(1, 9)]
    for n in range(71):
        assert words._count("a" * n, *patterns) == [math.comb(n, m) for m in range(1, 9)], n


@hypothesis.given(
    st.lists(st.text(alphabet="abc", max_size=6), max_size=5),
    st.text(alphabet="abcd", max_size=12),
)
def test_count_matches_brute_force_on_drawn_words(patterns, word):
    # Repeated letters, λ, duplicates and a letter in no pattern.
    brute = brute_counts(word, 6)
    assert words._count(word, *patterns) == [brute[p] for p in patterns]
