"""The shared work of the exhaustive suites against per-word recomputation.

`binary-closed-form` and `ce1-iff`/`ce2-iff` take each necklace's ladder
sums once per run; `product-identity` and `linear-rules` extend one DP
state per letter along the prefix tree (`enumeration._walk`).  The
oracles recompute everything for each word from scratch, as the suites
used to: `_words_up_to`, `permutation_identity_check`, `_parikh_rows`,
`_count` and `m_equivalent`.  The call counts pin the sharing itself.
"""

import functools
import itertools
from functools import partial

import pytest

from circparikh import Alphabet, canonicalize, circular, enumeration, m_equivalent, words
from circparikh.enumeration import _extend_counts, _extend_rows, _walk, _words_up_to
from circparikh.rewriting import _swaps
from circparikh.words import _count, _parikh_rows, _positions, permutation_identity_check

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ABC = Alphabet("abc")


@pytest.mark.parametrize("symbols", ["a", "ab", "abc", "abcd"])
def test_walk_yields_words_up_to_order(symbols):
    # With the word itself as the state, each state is the path that led to it.
    walked = list(_walk(symbols, 6, "", lambda state, x: state + x))
    assert [w for w, _ in walked] == list(_words_up_to(symbols, 6))
    assert all(w == state for w, state in walked)


def linear_verdicts(alphabet, max_length):
    """The per-word verdicts of `product-identity`'s linear half."""
    cases = enumeration._product_identity(alphabet, max_length)
    linear = sum(alphabet.size**n for n in range(max_length + 1))
    return [case is None for case in itertools.islice(cases, linear)]


@pytest.mark.parametrize("relabel", [{}, {"c": "a"}])
def test_linear_product_identity_matches_permutation_check(monkeypatch, relabel):
    # With `relabel` applied to the patterns whose DPs are counted, on both
    # sides, but not to the letters whose counts are multiplied, the identity
    # fails for some words: both verdicts.
    table = str.maketrans(relabel)

    def relabeled(pattern):
        return _positions(pattern.translate(table))

    monkeypatch.setattr(enumeration, "_positions", relabeled)
    monkeypatch.setattr(words, "_positions", relabeled)
    oracle = [permutation_identity_check(ABC, w) for w in _words_up_to(ABC.symbols, 7)]
    assert linear_verdicts(ABC, 7) == oracle
    assert set(oracle) == ({True} if not relabel else {True, False})


@pytest.mark.parametrize("spec, max_n", [("a,b,c", 7), ("c,a,b", 6), ("a,b,c,d", 5)])
def test_walked_parikh_rows_match_parikh_rows(spec, max_n):
    alphabet = Alphabet.parse(spec)
    step = partial(_extend_rows, alphabet._rank)
    for w, rows in _walk(alphabet.symbols, max_n, _parikh_rows(alphabet, ""), step):
        assert rows == _parikh_rows(alphabet, w), w


def always_holds(swaps):
    return [(alpha, head, tail, lambda x, y: (0, 0)) for alpha, head, tail, _ in swaps]


@pytest.mark.parametrize("rule", ["CE1", "CE2"])
@pytest.mark.parametrize("condition_holds", [False, True])
def test_shared_ladder_sums_match_m_equivalent(monkeypatch, rule, condition_holds):
    # With every side condition made to hold, a case holds iff its pair is
    # M-equivalent, so the verdicts are the equivalences: both values.
    if condition_holds:
        monkeypatch.setattr(enumeration, "_swaps", lambda a, r: always_holds(_swaps(a, r)))
    oracle = []
    for x, y in enumeration._split_pairs(ABC.symbols, 4):
        for _, head, tail, side_condition in enumeration._swaps(ABC, rule):
            lhs, rhs = side_condition(x, y)
            w, w2 = x + head + y + tail, x + tail + y + head
            equivalent = m_equivalent(canonicalize(ABC, w), canonicalize(ABC, w2))
            oracle.append((lhs == rhs) == equivalent)
    verdicts = [case is None for case in enumeration._ce_iff(rule, ABC, 4)]
    assert verdicts == oracle
    assert set(oracle) == ({True, False} if condition_holds else {True})


@hypothesis.given(st.text(alphabet="abc", max_size=30))
def test_extended_counts_match_count(word):
    patterns = ["".join(p) for p in itertools.permutations("abc")]
    positions = [_positions(p) for p in patterns]
    root = [[1, 0, 0, 0] for _ in patterns]
    dps = functools.reduce(partial(_extend_counts, positions), word, root)
    assert [dp[-1] for dp in dps] == [_count(word, p) for p in patterns]


def counting(calls, kernel):
    def stand_in(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    return stand_in


# The kernel calls at the default bounds: one per necklace, the necklaces
# being 802 binary ones up to length 12 (`binary-mequiv` checks as many) and
# 1266 / 2213 ternary ones among the CE1 / CE2 swap pairs.
@pytest.mark.parametrize(
    "suite, calls", [("binary-closed-form", 802), ("ce1-iff", 1266), ("ce2-iff", 2213)]
)
def test_one_kernel_call_per_necklace(monkeypatch, suite, calls):
    kernel_calls = []
    monkeypatch.setattr(circular, "_rotation_sums", counting(kernel_calls, circular._rotation_sums))
    assert enumeration.run_suite(suite).passed
    assert len(kernel_calls) == calls


def test_product_identity_counts_no_word_from_scratch(monkeypatch):
    count_calls = []
    monkeypatch.setattr(words, "_count", counting(count_calls, words._count))
    assert enumeration.run_suite("product-identity").passed
    assert count_calls == []
