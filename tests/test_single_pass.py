"""The single-pass paths against brute-force oracles.

`canonicalize` finds the least rotation and its period in one Duval pass;
the oracle tries every rotation and takes the period from `primitive_root`.
One scanner lists the CE1 and CE2 sites; the oracle splits every rotation
into x·head·y·tail and evaluates the side conditions as the paper states
them.
"""

import itertools

import pytest

from circparikh import (
    Alphabet,
    canonicalize,
    enumerate_necklaces,
    find_ce1,
    find_ce2,
    primitive_root,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=400, deadline=None, derandomize=True)


def least_rotation_oracle(alphabet, word):
    ranks = alphabet.ranks(word)
    r = min(range(len(word)), key=lambda r: ranks[r:] + ranks[:r], default=0)
    canonical = word[r:] + word[:r]
    return canonical, primitive_root(canonical)


@pytest.mark.parametrize("spec", ["a", "b,a", "c,a,b"])
def test_canonicalize_matches_oracle_exhaustively(spec):
    alphabet = Alphabet.parse(spec)
    for n in range(11):
        for letters in itertools.product(alphabet.symbols, repeat=n):
            word = "".join(letters)
            cw = canonicalize(alphabet, word)
            assert (cw.canonical, cw.period) == least_rotation_oracle(alphabet, word), word


@st.composite
def rotated_powers(draw):
    """An alphabet in a drawn order and a rotation of a power u^k over it."""
    order = draw(st.permutations("abcd"))
    symbols = "".join(order[: draw(st.integers(1, 4))])
    root = draw(st.text(alphabet=symbols, min_size=1, max_size=8))
    word = root * draw(st.integers(1, 6))
    shift = draw(st.integers(0, len(word) - 1))
    return symbols, word[shift:] + word[:shift]


@SETTINGS
@hypothesis.given(rotated_powers())
def test_canonicalize_on_rotated_powers(case):
    symbols, word = case
    alphabet = Alphabet(symbols)
    cw = canonicalize(alphabet, word)
    assert (cw.canonical, cw.period) == least_rotation_oracle(alphabet, word)


def site_oracle(alphabet, word):
    """(rule, rotation, |x|, |y|, α, lhs, rhs, result) for every CE1 site,
    then every CE2 site, each in the order rotation, α, |x|."""
    a, b, c = alphabet.symbols
    n = len(word)
    rotations = [word[r:] + word[:r] for r in range(n)]
    sites = []
    for rule, alphas in (("CE1", [None]), ("CE2", [a, c])):
        for r, rot in enumerate(rotations):
            for alpha in alphas:
                for i in range(n - 3):
                    x, head, y, tail = rot[:i], rot[i : i + 2], rot[i + 2 : n - 2], rot[n - 2 :]
                    if alpha is None:
                        if (head, tail) != (a + c, c + a):
                            continue
                        lhs = y.count(b) * (x.count(a) - x.count(c))
                        rhs = x.count(b) * (y.count(a) - y.count(c))
                    else:
                        if (head, tail) != (alpha + b, b + alpha):
                            continue
                        bar = c if alpha == a else a
                        lhs = x.count(bar) * (len(y) + y.count(b) + 3)
                        rhs = y.count(bar) * (len(x) + x.count(b) + 3)
                    result = least_rotation_oracle(alphabet, x + tail + y + head)
                    sites.append((rule, r, len(x), len(y), alpha, lhs, rhs, result))
    return sites


@pytest.mark.parametrize("spec", ["a,b,c", "b,c,a"])
def test_ce_scanner_matches_site_oracle(spec):
    alphabet = Alphabet.parse(spec)
    seen_alphas = set()
    for n in range(9):
        for cw in enumerate_necklaces(alphabet, n):
            listed = [
                (
                    app.rule,
                    app.rotation,
                    app.x_len,
                    app.y_len,
                    app.alpha,
                    app.condition_lhs,
                    app.condition_rhs,
                    (app.result.canonical, app.result.period),
                )
                for app in find_ce1(cw) + find_ce2(cw)
            ]
            assert listed == site_oracle(alphabet, cw.canonical), cw
            seen_alphas.update(site[4] for site in listed)
    a, _, c = alphabet.symbols
    assert seen_alphas == {None, a, c}
