"""The shared work of the exhaustive suites against per-word recomputation.

`binary-closed-form`, `ce1-iff`/`ce2-iff` and `inverse-alternate` take
each necklace's ladder sums once per run; `product-identity` and
`linear-rules` extend one DP state per letter along the prefix tree
(`enumeration._walk`), and `linear-rules` looks each rewrite up among the
words of its length; `power` takes each necklace's ladder sums once and
keeps T^p as a running product, and its kernel and product calls and those
of the circular check of `product-identity` are pinned.  The oracles
recompute everything for each word from scratch, as the suites used to:
`words_up_to` below, `permutation_identity_check`, `_parikh_rows`,
`reference_count` below, `m_equivalent`, `circular_inverse_alternate_check`
and `circular_power_check`.  The call counts pin the sharing itself.
The walk's stack is checked against `recursive_walk` below, the
recursive generators it replaced, word by word and state by state, and
for how many states it holds.
The one count table `words._table` and its reader `words._read`, behind
`_count` and both walks, hold every DP in one packed integer; their
lanes, unpacked by `lanes` below, are checked entry by entry against
`reference_count`, a textbook DP that shares no code with them: the
suffixes of a pattern v, repeated letters included, against the factor
counts of M_v, and for composition: reading w, then u, is reading w·u.
`parikh_matrix`, the ladder kernel over one shift, is checked entry by
entry against it too.  `_count` reads many patterns in one pass: its
counts are checked pattern by pattern against `reference_count`, each
public count and identity check reads the word once, and under a wrong
count table each identity check reports the identity of the counts it
read, false on some words.  The ladder, `avg_count` and the coverings
π·π[:-1] of `product-identity` run through generated kernels, one per
pattern length and entries, and compile no table; each walk compiles one
per alphabet, the ladder's suffixes for `linear-rules`.
"""

import itertools
import math

import pytest

from circparikh import (
    Alphabet,
    SuiteLimits,
    avg_count,
    canonicalize,
    circular,
    circular_inverse_alternate_check,
    circular_power_check,
    count_subword,
    direct_count,
    enumeration,
    inverse_identity_check,
    m_equivalent,
    parikh_matrix,
    product_identity_check,
    slender_partition_check,
    words,
)
from circparikh.enumeration import _walk
from circparikh.matrices import _tri_mul
from circparikh.rewriting import _counts, _factors
from circparikh.words import _parikh_rows, _read, _table, permutation_identity_check

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ABC = Alphabet("abc")


def words_up_to(symbols, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


def lanes(state, width, count):
    """The `count` lanes of a packed `_table` state, low end first; no bit
    is set above them."""
    assert 0 <= state < 1 << count * width
    return [state >> i * width & ((1 << width) - 1) for i in range(count)]


def packed(entries, width):
    """The packed state whose lanes are `entries`, low end first."""
    return sum(e << i * width for i, e in enumerate(entries))


def reference_count(word, pattern):
    """|word|_pattern by the textbook DP: dp[j] counts the placements of
    pattern[:j] in the prefix read so far, and each letter advances every
    position that holds it, the last position first."""
    dp = [1] + [0] * len(pattern)
    for ch in word:
        for j in reversed(range(len(pattern))):
            if pattern[j] == ch:
                dp[j + 1] += dp[j]
    return dp[-1]


@pytest.mark.parametrize("symbols", ["a", "ab", "abc", "abcd"])
def test_walk_yields_words_up_to_order(symbols):
    # With one single-letter DP per symbol as the state, each state holds the
    # letter counts of the path that led to it.
    root, masks, width = _table(symbols, 6)
    walked = list(_walk(symbols, 6, root, masks, width))
    assert [w for w, _ in walked] == list(words_up_to(symbols, 6))
    counts = [w.count(s) for w, _ in walked for s in symbols]
    assert [e for _, state in walked for e in lanes(state, width, 2 * len(symbols))[1::2]] == counts


def recursive_walk(symbols, max_len, root, masks, width):
    """The walk as recursive generators, each word passed up through one
    `yield from` per letter: the oracle of `_walk`'s order and states."""

    def below(word, state, depth):
        if not depth:
            yield word, state
            return
        for x in symbols:
            yield from below(word + x, _read(state, masks, width, x), depth - 1)

    for n in range(max_len + 1):
        yield from below("", root, n)


@pytest.mark.parametrize("symbols", ["a", "ba", "abc", "cab"])
def test_walk_matches_the_recursive_walk(symbols):
    # The ladder's suffix DPs of `linear-rules` and the permutation DPs of
    # `product-identity`, word by word and state by state.
    permutations = ["".join(p) for p in itertools.permutations(symbols)]
    for table in (suffix_table(symbols, 6), _table(permutations, 6)):
        walked = list(_walk(tuple(symbols), 6, *table))
        assert walked == list(recursive_walk(symbols, 6, *table))
        assert len(walked) == sum(len(symbols) ** n for n in range(7))


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("max_len", [0, 1, 6])
def test_walk_holds_one_path_of_pending_states(monkeypatch, symbols, max_len):
    # Each state the walk reads is tracked while it lives: whenever a word
    # is yielded, at most max_len (|Σ| - 1) + 1 of them are alive besides
    # the root, the pending siblings along one root-to-leaf path.
    live = []  # one token per state read and not yet freed

    class State(int):
        def __del__(self):
            live.pop()

    def tracked(*args):
        live.append(None)
        return State(_read(*args))

    monkeypatch.setattr(enumeration, "_read", tracked)
    peak = 0
    for _ in _walk(symbols, max_len, *suffix_table(symbols, max_len)):
        peak = max(peak, len(live))
    assert peak <= max_len * (len(symbols) - 1) + 1
    assert (peak > 0) == (max_len > 0)


def linear_verdicts(alphabet, max_length):
    """The per-word verdicts of `product-identity`'s linear half."""
    cases = enumeration._product_identity(alphabet, max_length)
    linear = sum(alphabet.size**n for n in range(max_length + 1))
    return [case is None for case in itertools.islice(cases, linear)]


def relabeled_table(table):
    """`_table` of the patterns with `table` applied: a wrong count table
    whenever `table` maps a symbol to another."""

    def stand_in(patterns, max_len):
        return _table([pattern.translate(table) for pattern in patterns], max_len)

    return stand_in


@pytest.mark.parametrize("relabel", [{}, {"c": "a"}])
def test_linear_product_identity_matches_permutation_check(monkeypatch, relabel):
    # With `relabel` applied to the patterns whose DPs are counted, on both
    # sides, but not to the letters whose counts are multiplied, the identity
    # fails for some words: both verdicts.
    relabeled = relabeled_table(str.maketrans(relabel))
    monkeypatch.setattr(enumeration, "_table", relabeled)
    monkeypatch.setattr(words, "_table", relabeled)
    oracle = [permutation_identity_check(ABC, w) for w in words_up_to(ABC.symbols, 7)]
    assert linear_verdicts(ABC, 7) == oracle
    assert set(oracle) == ({True} if not relabel else {True, False})


def factor_counts(word, pattern):
    """M_v(word) by its defining identity, as tuple rows: entry (i, j)
    counts v[i:j] in the word for i <= j, and is 0 below the diagonal."""
    d = len(pattern) + 1
    return tuple(
        tuple(reference_count(word, pattern[i:j]) if i <= j else 0 for j in range(d)) for i in range(d)
    )


def upper(rows):
    """Each row but the last, from its diagonal on, one after another: the
    DPs of the suffixes of the pattern."""
    return [e for i, row in enumerate(rows[:-1]) for e in row[i:]]


def suffix_table(pattern, max_len):
    return _table([pattern[i:] for i in range(len(pattern))], max_len)


def read(pattern, word, max_len=None):
    """The suffix DPs of `pattern` after `word`, from a table built for
    words up to `max_len` (|word| by default), unpacked."""
    root, masks, width = suffix_table(pattern, len(word) if max_len is None else max_len)
    d = len(pattern) + 1
    return lanes(_read(root, masks, width, word), width, d * (d + 1) // 2 - 1)


# A one-letter ladder, and symbols that would need escaping in source.
LADDERS = ["a", "a,b", "a,b,c", "c,a,b", "a,b,c,d", "',\",\\"]


@pytest.mark.parametrize(
    "spec, max_n", [("a", 8), ("a,b", 8), ("a,b,c", 7), ("c,a,b", 6), ("a,b,c,d", 5), (LADDERS[-1], 5)]
)
def test_read_ladder_rows_count_factors(spec, max_n):
    # Each word is also read as its prefix and then its last letter: the
    # `linear-rules` walk step.
    alphabet = Alphabet.parse(spec)
    ladder = "".join(alphabet.symbols)
    _, masks, width = suffix_table(ladder, max_n)
    for w in words_up_to(alphabet.symbols, max_n):
        rows = _parikh_rows(alphabet, w)
        assert rows == factor_counts(w, ladder), w
        walked = _read(packed(upper(_parikh_rows(alphabet, w[:-1])), width), masks, width, w[-1:])
        assert lanes(walked, width, len(upper(rows))) == upper(rows), w


@st.composite
def ladder_words(draw):
    alphabet = Alphabet.parse(draw(st.sampled_from(LADDERS)))
    return alphabet, draw(st.text(alphabet=alphabet.symbols, max_size=512))


@hypothesis.given(ladder_words())
def test_parikh_matrix_counts_factors_on_long_words(case):
    alphabet, word = case
    rows = parikh_matrix(alphabet, word).rows
    assert rows == factor_counts(word, "".join(alphabet.symbols))


patterns = st.text(alphabet="abc", min_size=1, max_size=6)
texts = st.text(alphabet="abcd", max_size=12)


@hypothesis.given(patterns, texts)
def test_read_counts_factors_of_repeated_letter_patterns(pattern, word):
    assert read(pattern, word) == upper(factor_counts(word, pattern))


@hypothesis.given(patterns, texts, texts)
def test_reading_w_then_u_is_reading_wu(pattern, w, u):
    root, masks, width = suffix_table(pattern, len(w + u))
    assert _read(_read(root, masks, width, w), masks, width, u) == _read(root, masks, width, w + u)
    assert read(pattern, w, len(w + u)) == read(pattern, w)


def always_holds(factors):
    return [(alpha, head, tail, roles, lambda x, y: (0, 0)) for alpha, head, tail, roles, _ in factors]


@pytest.mark.parametrize("rule", ["CE1", "CE2"])
@pytest.mark.parametrize("condition_holds", [False, True])
def test_shared_ladder_sums_match_m_equivalent(monkeypatch, rule, condition_holds):
    # With every side condition made to hold, a case holds iff its pair is
    # M-equivalent, so the verdicts are the equivalences: both values.
    if condition_holds:
        monkeypatch.setattr(enumeration, "_factors", lambda a, r: always_holds(_factors(a, r)))
    oracle = []
    for x, y in enumeration._split_pairs(ABC.symbols, 4):
        for _, head, tail, roles, sides in enumeration._factors(ABC, rule):
            lhs, rhs = sides(_counts(x, roles), _counts(y, roles))
            w, w2 = x + head + y + tail, x + tail + y + head
            equivalent = m_equivalent(canonicalize(ABC, w), canonicalize(ABC, w2))
            oracle.append((lhs == rhs) == equivalent)
    verdicts = [case is None for case in enumeration._ce_iff(rule, ABC, 4)]
    assert verdicts == oracle
    assert set(oracle) == ({True, False} if condition_holds else {True})


@hypothesis.given(st.text(alphabet="abc", max_size=30))
def test_extended_counts_match_count(word):
    patterns = ["".join(p) for p in itertools.permutations("abc")]
    root, masks, width = _table(patterns, len(word))
    assert lanes(root, width, 24) == [1, 0, 0, 0] * len(patterns)
    state = _read(root, masks, width, word)
    assert lanes(state, width, 24)[3::4] == [reference_count(word, p) for p in patterns]


count_patterns = st.lists(
    st.one_of(st.text(alphabet="abc", max_size=5), st.sampled_from(["", "aa", "abab", "bcbcb"])),
    max_size=6,
)


@hypothesis.given(count_patterns, texts)
def test_count_matches_reference_count_pattern_by_pattern(patterns, word):
    # λ, repeated letters, periodic patterns and a duplicate in one read.
    patterns += patterns[:1]
    assert words._count(word, *patterns) == [reference_count(word, p) for p in patterns]


def rotations(pattern):
    return {pattern[i:] + pattern[:i] for i in range(len(pattern))}


@pytest.mark.parametrize("symbols", ["ab", "abc", "cab"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_identity_checks_report_the_identity_of_their_counts(monkeypatch, symbols, perturbed):
    # With the last symbol read as the first in every counted pattern, but
    # not in the letter counts, each identity fails on some words; each
    # verdict is the identity of those counts taken by `reference_count`.
    table = str.maketrans({symbols[-1]: symbols[0]} if perturbed else {})
    monkeypatch.setattr(words, "_table", relabeled_table(table))
    alphabet = Alphabet(symbols)

    def count(word, pattern):
        return reference_count(word, pattern.translate(table))

    def product(word):
        return math.prod(word.count(s) for s in symbols)

    def permutation_sum(w):
        return sum(count(w, "".join(p)) for p in itertools.permutations(symbols))

    def slender_sum(w):
        reps = [p for p in map("".join, itertools.permutations(symbols)) if p[0] == symbols[0]]
        return sum(count(w, u) for v in reps for u in rotations(v))

    def inverse_holds(w):
        a, b, c = symbols
        rhs = product(w) - w.count(a) * count(w, b + c) - count(w, a + b) * w.count(c)
        return count(w[::-1], a + b + c) == rhs + count(w, a + b + c)

    linear = list(words_up_to(symbols, 6))
    necklaces = [cw for n in range(7) for cw in enumeration.enumerate_necklaces(alphabet, n)]
    checks = {
        "permutation": (
            [permutation_identity_check(alphabet, w) for w in linear],
            [permutation_sum(w) == product(w) for w in linear],
        ),
        "slender": (
            [slender_partition_check(cw) for cw in necklaces],
            [slender_sum(cw.canonical) == product(cw.canonical) for cw in necklaces],
        ),
    }
    if len(symbols) == 3:
        checks["inverse"] = (
            [inverse_identity_check(alphabet, w) for w in linear],
            [inverse_holds(w) for w in linear],
        )
    for name, (verdicts, oracle) in checks.items():
        assert verdicts == oracle, name
        assert set(oracle) == ({True, False} if perturbed else {True}), name


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_subword("abacbc", "aba"),
        lambda: direct_count(canonicalize(ABC, "abacbc"), "abab"),
        lambda: permutation_identity_check(ABC, "abacbc"),
        lambda: inverse_identity_check(ABC, "abacbc"),
        lambda: slender_partition_check(canonicalize(ABC, "abacbc")),
    ],
    ids=["count_subword", "direct_count", "permutation", "inverse", "slender"],
)
def test_each_count_reads_the_word_once(monkeypatch, call):
    # One read of the word itself (a necklace's canonical word), the mirror
    # of the inverse identity included, whatever the number of patterns.
    read_calls = []
    monkeypatch.setattr(words, "_read", counting(read_calls, _read))
    call()
    assert [args[-1] for args in read_calls] == ["abacbc"]


def test_product_identity_walk_counts_every_permutation_prefix(monkeypatch):
    # Entry j of a permutation's block, at every word the walk of the linear
    # half yields, counts the permutation's first j letters in that word.
    walked, widths = [], []

    def recording(*args):
        widths.append(args[-1])
        for item in _walk(*args):
            walked.append(item)
            yield item

    monkeypatch.setattr(enumeration, "_walk", recording)
    assert all(linear_verdicts(ABC, 7))
    patterns = ["".join(p) for p in itertools.permutations("abc")]
    assert [w for w, _ in walked] == list(words_up_to("abc", 7))
    (width,) = widths
    for w, state in walked:
        assert lanes(state, width, 24) == [reference_count(w, p[:j]) for p in patterns for j in range(4)], w


def test_product_identity_compiles_one_table_per_alphabet(monkeypatch):
    # The walk's permutation DPs are compiled once per alphabet, not per step.
    compiled = []
    stand_in = counting(compiled, _table)
    for module in (words, enumeration):
        monkeypatch.setattr(module, "_table", stand_in)
    assert enumeration.run_suite("product-identity").passed
    assert compiled == [
        (["".join(p) for p in itertools.permutations(symbols)], 8) for symbols in ("ab", "abc")
    ]


def counting(calls, kernel):
    def stand_in(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    return stand_in


# The kernel calls at the default bounds: one per necklace, the necklaces
# being 802 binary ones up to length 12 (`binary-mequiv` checks as many),
# 1266 / 2213 ternary ones among the CE1 / CE2 swap pairs and the 1 469 of
# `inverse-alternate` (94 binary, 1 375 ternary), whose mirrors are among them.
@pytest.mark.parametrize(
    "suite, calls",
    [
        ("binary-closed-form", 802),
        ("ce1-iff", 1266),
        ("ce2-iff", 2213),
        ("inverse-alternate", 1469),
    ],
)
def test_one_kernel_call_per_necklace(monkeypatch, suite, calls):
    kernel_calls = []
    monkeypatch.setattr(circular, "_rotation_sums", counting(kernel_calls, circular._rotation_sums))
    assert enumeration.run_suite(suite).passed
    assert len(kernel_calls) == calls


# Over the 1 469 necklaces of `power` and `product-identity` (94 binary,
# 1 375 ternary): power takes T once per necklace and the sums of w^p for
# p = 2..4, 1 469 + 3 * 1 469 = 5 876 ladder calls; product-identity one
# entry-total call per permutation that starts with the least symbol,
# 94 + 2 * 1 375 = 2 844.  Neither suite calls the other kernel.
KERNEL_OF = {"power": "_rotation_sums", "product-identity": "_rotation_total"}


@pytest.mark.parametrize(
    "suite, calls, checked", [("power", 5876, 5876), ("product-identity", 2844, 11821)]
)
def test_kernel_calls_of_power_and_product_identity(monkeypatch, suite, calls, checked):
    kernel_calls = {name: [] for name in KERNEL_OF.values()}
    for name, seen in kernel_calls.items():
        monkeypatch.setattr(circular, name, counting(seen, getattr(circular, name)))
    result = enumeration.run_suite(suite)
    assert (result.passed, result.checked) == (True, checked)
    made = {name: len(seen) for name, seen in kernel_calls.items()}
    assert made == {name: calls if name == KERNEL_OF[suite] else 0 for name in kernel_calls}


def test_power_multiplies_once_for_each_p_above_one(monkeypatch):
    # T^p is a running product: 3 * 1 469 = 4 407 products at p <= 4.
    product_calls = []
    for module in (circular, enumeration):
        monkeypatch.setattr(module, "_tri_mul", counting(product_calls, _tri_mul))
    assert enumeration.run_suite("power").passed
    assert len(product_calls) == 4407


def test_product_identity_counts_no_word_from_scratch(monkeypatch):
    count_calls = []
    monkeypatch.setattr(words, "_count", counting(count_calls, words._count))
    assert enumeration.run_suite("product-identity").passed
    assert count_calls == []


def test_linear_rules_reads_only_the_root_from_scratch(monkeypatch):
    # The root is λ's rows; every other word's rows are its parent's with
    # one letter read, at each of the walk's (3^(n+1) - 3) / 2 steps to n <= 8.
    read_calls = []
    monkeypatch.setattr(enumeration, "_read", counting(read_calls, _read))
    assert enumeration.run_suite("linear-rules").passed
    assert {len(args[-1]) for args in read_calls} == {1}
    assert len(read_calls) == sum((3 ** (n + 1) - 3) // 2 for n in range(9))


@pytest.mark.parametrize("spec", ["a,b,c", "c,a,b"])
def test_linear_rules_walk_holds_each_words_parikh_rows(monkeypatch, spec):
    # The suite passes on any rows the rules preserve, the mirrored
    # ladder's included: the walk's state of each word is its own rows.
    walked, widths = [], []

    def recording(*args):
        widths.append(args[-1])
        for item in _walk(*args):
            walked.append(item)
            yield item

    monkeypatch.setattr(enumeration, "_walk", recording)
    alphabet = Alphabet.parse(spec)
    assert all(case is None for case in enumeration._suite("linear-rules").cases(alphabet, max_length=5))
    assert [w for w, _ in walked] == list(words_up_to(alphabet.symbols, 5))
    (width,) = widths
    for w, state in walked:
        assert lanes(state, width, 9) == upper(factor_counts(w, "".join(alphabet.symbols))), w


def test_ladder_calls_compile_nothing(monkeypatch):
    compiled = []
    stand_in = counting(compiled, _table)
    for module in (words, enumeration):
        monkeypatch.setattr(module, "_table", stand_in)
    assert enumeration.run_suite("power").passed
    enumeration.partition_by_matrix(ABC, 7)
    _parikh_rows(ABC, "abcabca")
    binary = Alphabet("ba")
    avg_count(canonicalize(binary, "aab"), "ab")
    product_identity_check(canonicalize(binary, "aab"))
    assert compiled == []
    # The stand-in sees a compile: the table of the `linear-rules` walk, of
    # the ladder's suffixes.
    assert not any(enumeration._suite("linear-rules").cases(Alphabet("bca"), max_length=2))
    assert compiled == [(["bca", "ca", "a"], 2)]


@pytest.mark.parametrize(
    "extra",
    [
        lambda w: w + "a",
        lambda w: w[:-1] or "ab",
        lambda w: "d" + w[1:],
        lambda w: "1" + w[1:],
        lambda w: w[:1] + "_" + w[2:],
        lambda w: " " + w[1:],
        lambda w: "\u0661" + w[1:],
    ],
    ids=["longer", "shorter", "foreign-letter", "digit", "underscore", "leading-space", "unicode-digit"],
)
def test_linear_rules_fails_a_result_outside_the_level(monkeypatch, extra):
    # Each word gets one more result that is no word of its length: every
    # word fails once, and the suite raises nothing.  A word one letter
    # shorter than an odd length would rank inside the level, so only its
    # length tells it apart.  A digit, an underscore between digits, a
    # leading space and a Unicode digit (ARABIC-INDIC DIGIT ONE) are each
    # read by `int` as part of a numeral, so only the alphabet check tells
    # them apart: "1" alone ranks as "b".
    apply_e1 = enumeration.apply_e1
    monkeypatch.setattr(enumeration, "apply_e1", lambda a, w: apply_e1(a, w) | {extra(w)})
    word_count = sum(3**n for n in range(5))
    limits = SuiteLimits(max_length=4, failure_cap=word_count)
    result = enumeration.run_suite("linear-rules", limits)
    assert result.failure_count == word_count
    assert result.failures[-1] == f"cccc -> {extra('cccc')}: linear Parikh matrix changed"


def top_right_raised(ladder_sums):
    """`_ladder_sums` with entry (0, s) raised by one for the necklaces whose
    canonical word ends in the last symbol."""

    def stand_in(cw):
        top, *rest = sums = ladder_sums(cw)
        if not cw.canonical.endswith(cw.alphabet.symbols[-1]):
            return sums
        return (top[:-1] + (top[-1] + 1,), *rest)

    return stand_in


@pytest.mark.parametrize("symbols", ["ab", "abc"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_inverse_alternate_verdicts_match_the_check(monkeypatch, symbols, perturbed):
    # With perturbed ladder sums, read by the suite and the check alike, some
    # necklaces fail: both verdicts.
    if perturbed:
        monkeypatch.setattr(circular, "_ladder_sums", top_right_raised(circular._ladder_sums))
    alphabet = Alphabet(symbols)
    necklaces = [cw for n in range(7) for cw in enumeration.enumerate_necklaces(alphabet, n)]
    oracle = [circular_inverse_alternate_check(cw) for cw in necklaces]
    cases = enumeration._suite("inverse-alternate").cases(alphabet, max_length=6)
    assert [case is None for case in cases] == oracle
    assert set(oracle) == ({True, False} if perturbed else {True})


@pytest.mark.parametrize("symbols", ["ab", "abc"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_power_verdicts_match_the_check(monkeypatch, symbols, perturbed):
    # With perturbed ladder sums, read by the suite and the check alike, T^p
    # misses the sums of w^p for p >= 2 on some necklaces: both verdicts.  The
    # check builds T^p on its own for each p, the suite as a running product.
    if perturbed:
        monkeypatch.setattr(circular, "_ladder_sums", top_right_raised(circular._ladder_sums))
    alphabet = Alphabet(symbols)
    necklaces = [cw for n in range(7) for cw in enumeration.enumerate_necklaces(alphabet, n)]
    oracle = [circular_power_check(cw, p) for cw in necklaces for p in range(1, 5)]
    cases = enumeration._suite("power").cases(alphabet, max_length=6, max_power=4)
    assert [case is None for case in cases] == oracle
    assert set(oracle) == ({True, False} if perturbed else {True})


def test_product_identity_compiles_each_covering_once(monkeypatch):
    # One covering of the binary alphabet and two of the ternary one, each
    # built once per run rather than once per necklace, and from an empty
    # cache one kernel per alphabet size: its length and entries (i, i+s).
    built, generated, source = [], [], words._kernel_source
    monkeypatch.setattr(enumeration, "_coverings", counting(built, circular._coverings))
    monkeypatch.setattr(words, "_kernel_source", counting(generated, source))
    words._rotation_kernel.cache_clear()
    try:
        assert enumeration.run_suite("product-identity").passed
    finally:
        words._rotation_kernel.cache_clear()
    coverings = [covering for (alphabet,) in built for covering, _ in circular._coverings(alphabet)]
    assert coverings == ["aba", "abcab", "acbac"]
    assert generated == [(3, (2, 7)), (5, (3, 10, 17))]


def odd_words_raised(kernel):
    """`_rotation_total` with a covering's total, the sum of its s
    rotations of π, raised by one for the words of odd length."""

    def stand_in(word, pattern, entries):
        return kernel(word, pattern, entries) + len(word) % 2

    return stand_in


@pytest.mark.parametrize("symbols", ["ab", "abc"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_product_identity_verdicts_match_the_check(monkeypatch, symbols, perturbed):
    # With a perturbed kernel, read by the suite and the check alike, the
    # identity fails on the necklaces of odd length: both verdicts.  The
    # check builds its coverings per call, the suite once per run.
    if perturbed:
        monkeypatch.setattr(circular, "_rotation_total", odd_words_raised(circular._rotation_total))
    alphabet = Alphabet(symbols)
    necklaces = [cw for n in range(7) for cw in enumeration.enumerate_necklaces(alphabet, n)]
    oracle = [product_identity_check(cw) for cw in necklaces]
    cases = enumeration._suite("product-identity").cases(alphabet, max_length=6)
    linear = sum(alphabet.size**n for n in range(7))
    assert [case is None for case in itertools.islice(cases, linear, None)] == oracle
    assert set(oracle) == ({True, False} if perturbed else {True})
