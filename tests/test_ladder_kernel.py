"""The generated ladder kernel against an oracle.

`_rotation_sums` runs an alphabet's ladder through
`words._rotation_kernel`, straight-line code generated once per alphabet
size, and the linear Parikh matrix is the same kernel over one shift; a
pattern's entry total runs through the same generator, once per pattern
length and entries.  The oracle is this file's own: it counts the Parikh
matrix of every cyclic shift afresh, letter by letter, and adds them up in
order.  The generated source is checked for its shape, O(s^2) lines.
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
    `word`, for t = 0, 1, ..., `last` (|word| by default), as tuple rows,
    each shift's matrix counted afresh or found in `memo`."""
    d, memo = len(symbols) + 1, {} if memo is None else memo
    total = [int(not word and i == j) for i in range(d) for j in range(d)]
    out = [total]
    for k in range(len(word) if last is None else last):
        u = word[k:] + word[:k]
        if u not in memo:
            memo[u] = parikh(symbols, u)
        total = list(map(operator.add, total, memo[u]))
        out.append(total)
    return [tuple(tuple(flat[i : i + d]) for i in range(0, d * d, d)) for flat in out]


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
    """The (length, entries) pairs `_rotation_kernel` generates code for,
    from an empty cache: entries is None for a ladder."""
    keys, source = [], words._kernel_source

    def recording(m, entries):
        keys.append((m, entries))
        return source(m, entries)

    monkeypatch.setattr(words, "_kernel_source", recording)
    words._rotation_kernel.cache_clear()
    yield keys
    words._rotation_kernel.cache_clear()


def test_nothing_is_generated_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import circparikh; from circparikh.words import _rotation_kernel; "
        "circparikh.Alphabet.parse('c,a,b'); print(_rotation_kernel.cache_info().currsize)"
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
    assert sorted(generated) == [(s, None) for s in (1, 2, 3, 4)]


def test_one_generation_per_pattern_length(generated):
    # The letters are arguments: avg_count, which reads entry (0, m), runs
    # one kernel per pattern length whatever the letters, repeated or
    # distinct, and the coverings π·π[:-1] one per alphabet size.  Each
    # part starts from an empty cache.
    abcd = Alphabet.parse("abcd")
    necklaces = [cw for n in range(6) for cw in enumerate_necklaces(abcd, n)]
    for pattern in words_up_to("abcd", 5):
        for cw in necklaces:
            avg_count(cw, pattern)
    assert generated == [(m, (m,)) for m in range(6)]
    coverings = [(2 * s - 1, tuple(i * 2 * s + i + s for i in range(s))) for s in (1, 2, 3, 4)]
    parts = {
        "coverings": (product_identity_check, coverings),
        "ladder": (circular_parikh_matrix, [(s, None) for s in (1, 2, 3, 4)]),
    }
    for name, (check, expected) in parts.items():
        generated.clear()
        words._rotation_kernel.cache_clear()
        for spec in ALPHABETS:
            for n in range(6):
                for cw in enumerate_necklaces(Alphabet.parse(spec), n):
                    check(cw)
        assert generated == expected, name


@pytest.mark.parametrize("s", [13, 26, 50])
def test_source_lines_grow_quadratically(s):
    # Doubling the alphabet about quadruples the ladder's source: O(s^2)
    # lines, where O(s^3) would give 8 and O(s^4) 16.
    lines = [words._kernel_source(k, None).count("\n") for k in (s, 2 * s)]
    assert 3.6 < lines[1] / lines[0] < 4.4
