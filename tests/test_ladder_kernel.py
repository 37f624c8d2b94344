"""The generated ladder kernel against an oracle.

`_rotation_sums` runs an alphabet's ladder through `words._ladder_kernel`,
straight-line code generated once per alphabet size, and the linear
Parikh matrix is the same kernel over one shift; every other program runs
through `_rotation_total`, which generates nothing.  The oracle is this
file's own: it counts the Parikh matrix of every cyclic shift afresh,
letter by letter, and adds them up in order.
"""

import itertools
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circparikh import (
    Alphabet,
    avg_count,
    canonicalize,
    circular_parikh_matrix,
    circular_power_check,
    enumerate_necklaces,
    m_equivalent,
    parikh_matrix,
    product_identity_check,
)
from circparikh import words
from circparikh.circular import _rotation_sums

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ALPHABETS = ["a", "ab", "abc", "abcd"]
# Out of code-point order, and symbols that would need escaping in source.
ODD = ["c,a,b", ["'", '"', "\\", "é"]]


def alphabet_of(spec):
    return Alphabet.parse(spec) if isinstance(spec, str) else Alphabet(spec)


def parikh(symbols, word):
    """M(word), flat and row-major: entry (i, j) counts the ladder factor
    a_{i+1} ... a_j, as M(u x) = M(u) E(x) adds column k into column k + 1
    for the letter x = a_{k+1}."""
    d = len(symbols) + 1
    m = [int(i == j) for i in range(d) for j in range(d)]
    for x in word:
        k = symbols.index(x)
        for i in range(k + 1):
            m[i * d + k + 1] += m[i * d + k]
    return m


def shift_sums(symbols, word, last=None, memo=None):
    """The sums of the Parikh matrices of the first t cyclic shifts of
    `word`, for t = 0, 1, ..., `last` (|word| by default), each shift's
    matrix counted afresh or found in `memo`."""
    d, memo = len(symbols) + 1, {} if memo is None else memo
    total = [int(not word and i == j) for i in range(d) for j in range(d)]
    out = [total]
    for k in range(len(word) if last is None else last):
        u = word[k:] + word[:k]
        if u not in memo:
            memo[u] = parikh(symbols, u)
        total = list(map(operator.add, total, memo[u]))
        out.append(total)
    return [[flat[i : i + d] for i in range(0, d * d, d)] for flat in out]


def words_up_to(symbols, max_len):
    for n in range(max_len + 1):
        for letters in itertools.product(symbols, repeat=n):
            yield "".join(letters)


def check_every_shift_count(alphabet, max_len):
    memo = {}
    for word in words_up_to(alphabet.symbols, max_len):
        expected = shift_sums(alphabet.symbols, word, memo=memo)
        for shifts, sums in enumerate(expected):
            assert _rotation_sums(word, alphabet, shifts) == sums, (word, shifts)
        assert _rotation_sums(word, alphabet) == expected[-1], word


@pytest.mark.parametrize("spec", ALPHABETS)
def test_generated_kernel_matches_oracle_exhaustively(spec):
    # Every word up to length 7, every shift count 0..n; λ gives the identity.
    check_every_shift_count(Alphabet.parse(spec), 7)


@pytest.mark.parametrize("spec", ODD, ids=["c,a,b", "quotes"])
def test_generated_kernel_follows_the_alphabet_not_its_text(spec):
    alphabet = alphabet_of(spec)
    check_every_shift_count(alphabet, 5)


@st.composite
def long_case(draw):
    alphabet = alphabet_of(draw(st.sampled_from(ALPHABETS + ODD)))
    word = draw(st.text(alphabet=alphabet.symbols, min_size=1, max_size=300))
    return alphabet, word, draw(st.integers(0, len(word)))


@hypothesis.given(long_case())
def test_generated_kernel_matches_oracle_on_long_words(case):
    alphabet, word, shifts = case
    got = _rotation_sums(word, alphabet, shifts)
    assert got == shift_sums(alphabet.symbols, word, shifts)[shifts]


@pytest.fixture
def generated(monkeypatch):
    """The sizes `_ladder_kernel` generates code for, from an empty cache."""
    sizes, source = [], words._ladder_source
    monkeypatch.setattr(words, "_ladder_source", lambda s: sizes.append(s) or source(s))
    words._ladder_kernel.cache_clear()
    yield sizes
    words._ladder_kernel.cache_clear()


def test_nothing_is_generated_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import circparikh; from circparikh.words import _ladder_kernel; "
        "circparikh.Alphabet.parse('c,a,b'); print(_ladder_kernel.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_one_generation_per_alphabet_size(generated):
    specs = ["a", "b", "ab", "ba", "x,y", "abc", "c,a,b", "b,a,c", "abcd", "d,c,b,a"]
    alphabets = [alphabet_of(spec) for spec in specs + ODD]
    assert generated == []  # building an alphabet generates nothing
    for alphabet in alphabets:
        for n in range(5):
            necklaces = list(enumerate_necklaces(alphabet, n))
            for cw in necklaces:
                parikh_matrix(alphabet, cw.canonical)
                circular_parikh_matrix(cw)
                m_equivalent(cw, necklaces[0])
                if alphabet.size <= 3:
                    circular_power_check(cw, 2)
    assert sorted(generated) == [1, 2, 3, 4]


def test_avg_count_and_coverings_generate_nothing(generated):
    # A pattern equal to the ladder compiles per call and runs
    # `_rotation_total`, as the coverings do.
    for spec in ALPHABETS:
        alphabet = Alphabet.parse(spec)
        for cw in enumerate_necklaces(alphabet, 5):
            avg_count(cw, spec)
            avg_count(cw, spec[::-1] + spec)
            product_identity_check(cw)
    assert generated == []
    circular_parikh_matrix(canonicalize(Alphabet("abc"), "abcab"))
    assert generated == [3]
