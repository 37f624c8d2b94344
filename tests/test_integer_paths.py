"""The integer fast paths of the exhaustive checks against slow oracles.

The oracles are the code these paths replaced: necklaces found by running
`canonicalize` on every word, the power, inverse-alternate and binary
closed-form identities taken on `Fraction` matrices, the permutation-sum
identity on `Fraction` averages and on one kernel call per permutation,
class keys formatted per necklace, and the minor scan over every square
minor with a Leibniz determinant.  The public matrix algebra, itself plain
`Fraction` arithmetic, and the integer triangular product are checked entry
by entry.
"""

import functools
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
    circular_parikh_matrix,
    enumerate_necklaces,
    mirror_class,
    partition_by_matrix,
    product_identity_check,
    search_negative_minor,
)
from circparikh import circular, enumeration
from circparikh.circular import (
    _ladder_sums,
    _power_holds,
    _rotation_sums,
    _rotation_total,
    _sums_inverse_alternate,
)
from circparikh.enumeration import MinorWitness, _int_det, _minor_pairs
from circparikh.matrices import _tri_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def necklace_oracle(alphabet, n):
    out = []
    for letters in itertools.product(alphabet.symbols, repeat=n):
        word = "".join(letters)
        cw = canonicalize(alphabet, word)
        if cw.canonical == word:
            out.append(cw)
    return out


@pytest.mark.parametrize("spec", ["a", "ba", "c,a,b", "b,d,a,c"])
def test_fkm_matches_booth_oracle(spec):
    alphabet = Alphabet.parse(spec)
    for n in range(9):
        # CircularWord equality compares the alphabet and the canonical word.
        assert enumerate_necklaces(alphabet, n) == necklace_oracle(alphabet, n)


def power_oracle(cw, p):
    powered = canonicalize(cw.alphabet, cw.canonical * p)
    return circular_parikh_matrix(powered) == circular_parikh_matrix(cw) ** p


def inverse_alternate_oracle(cw):
    inv = circular_parikh_matrix(cw).inverse()
    return inv == circular_parikh_matrix(mirror_class(cw)).alternate()


# The identities hold for |alphabet| <= 3; the quaternary necklaces give
# False verdicts, which the public checks refuse to compute.
@pytest.mark.parametrize(
    "spec, max_n, verdicts",
    [("a,b", 7, {True}), ("a,b,c", 7, {True}), ("a,b,c,d", 6, {True, False})],
)
def test_integer_identity_checks_match_fraction_oracle(spec, max_n, verdicts):
    alphabet = Alphabet.parse(spec)
    seen = set()
    for n in range(max_n + 1):
        for cw in enumerate_necklaces(alphabet, n):
            scale = max(cw.length, 1)
            holds = _sums_inverse_alternate(_ladder_sums(cw), _ladder_sums(mirror_class(cw)), scale)
            assert holds == inverse_alternate_oracle(cw), cw
            seen.add(("inverse", holds))
            for p in range(1, 5):
                holds = _power_holds(cw, p, functools.reduce(_tri_mul, [_ladder_sums(cw)] * p))
                assert holds == power_oracle(cw, p), (cw, p)
                seen.add(("power", holds))
    assert seen == {(identity, v) for identity in ("inverse", "power") for v in verdicts}


@pytest.mark.parametrize("extra", ["", "a", "ab"])
def test_binary_closed_form_cases_match_fraction_oracle(monkeypatch, extra):
    # With `extra` appended to the word whose matrix is taken, but not to the
    # word whose letters are counted, the closed form fails: both verdicts.
    ab = Alphabet("ab")
    monkeypatch.setattr(enumeration, "canonicalize", lambda a, w: canonicalize(a, w + extra))
    words = ["".join(t) for n in range(11) for t in itertools.product("ab", repeat=n)]
    oracle = [
        circular_parikh_matrix(canonicalize(ab, w + extra))
        == binary_closed_form(w.count("a"), w.count("b"))
        for w in words
    ]
    verdicts = [case is None for case in enumeration._binary_closed_form(ab, 10)]
    assert verdicts == oracle
    assert set(oracle) == ({True} if not extra else {False})


@pytest.mark.parametrize("spec, max_n", [("a,b", 6), ("a,b,c", 6), ("a,b,c,d", 6)])
def test_product_identity_matches_fraction_sum(spec, max_n):
    alphabet = Alphabet.parse(spec)
    seen = set()
    for n in range(max_n + 1):
        for cw in enumerate_necklaces(alphabet, n):
            permutations = ("".join(p) for p in itertools.permutations(alphabet.symbols))
            total = sum(avg_count(cw, p) for p in permutations)
            oracle = total == math.prod(cw.canonical.count(s) for s in alphabet.symbols)
            assert product_identity_check(cw) == oracle, cw
            seen.add(oracle)
    assert seen == {True}


@pytest.mark.parametrize("spec", ["a,b", "a,b,c", "a,b,c,d"])
def test_one_covering_call_sums_every_rotation(monkeypatch, spec):
    # The check calls the kernel once per permutation π that starts with the
    # least symbol, on π·π[:-1], for the entries (i, i+s) of its 2s x 2s
    # matrix, and entry (i, i+s) sums rotation i of π.
    alphabet = Alphabet.parse(spec)
    least, *rest = alphabet.symbols
    s = alphabet.size
    coverings = [least + "".join(p) for p in itertools.permutations(rest)]
    entries = [i * 2 * s + i + s for i in range(s)]
    calls = []

    def recording(*args):
        calls.append(args)
        return _rotation_total(*args)

    monkeypatch.setattr(circular, "_rotation_total", recording)
    for n in range(7):
        for cw in enumerate_necklaces(alphabet, n):
            w = cw.canonical
            calls.clear()
            product_identity_check(cw)
            assert calls == [(w, pi + pi[:-1], entries) for pi in coverings], cw
            for pi in coverings:
                for i, entry in enumerate(entries):
                    got = _rotation_total(w, pi + pi[:-1], [entry])
                    assert got == _rotation_total(w, pi[i:] + pi[:i], [s]), (cw, pi, i)


def mul_oracle(a, b):
    d = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(d)), Fraction(0)) for j in range(d)]
        for i in range(d)
    ]


def pow_oracle(rows, p):
    d = len(rows)
    out = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(p):
        out = mul_oracle(out, rows)
    return out


def inverse_oracle(rows):
    d = len(rows)
    inv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            inv[i][j] = -sum(inv[i][k] * rows[k][j] for k in range(i, j))
    return inv


def assert_rows(matrix, expected):
    assert [list(row) for row in matrix.rows] == expected
    assert all(type(e) is Fraction for row in matrix.rows for e in row)


# Mixed denominators, integer entries among them.
ENTRIES = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def matrix_pairs(draw):
    d = draw(st.integers(2, 5))

    def one():
        return UnitriangularMatrix(
            [[draw(ENTRIES) if j > i else int(i == j) for j in range(d)] for i in range(d)]
        )

    return one(), one()


@hypothesis.given(matrix_pairs(), st.integers(0, 6))
def test_integer_algebra_matches_fraction_oracle(pair, p):
    a, b = pair
    rows_a, rows_b = [list(r) for r in a.rows], [list(r) for r in b.rows]
    assert_rows(a * b, mul_oracle(rows_a, rows_b))
    assert_rows(a**p, pow_oracle(rows_a, p))
    assert_rows(a.inverse(), inverse_oracle(rows_a))


@st.composite
def integer_upper_pairs(draw):
    # Ladder sums have the word length, not 1, on the diagonal.
    d = draw(st.integers(1, 5))

    def one():
        return tuple(
            tuple(draw(st.integers(-60, 60)) if j >= i else 0 for j in range(d)) for i in range(d)
        )

    return one(), one()


@hypothesis.given(integer_upper_pairs())
def test_integer_triangular_product_matches_oracle(pair):
    a, b = pair
    product = _tri_mul(a, b)
    assert [list(row) for row in product] == mul_oracle(a, b)
    assert all(type(e) is int for row in product for e in row)


def leibniz_det(matrix):
    """The sum over permutations σ of sign(σ) times the product of the
    entries (i, σ(i)), the sign from the count of inversions."""
    k = len(matrix)
    total = 0
    for sigma in itertools.permutations(range(k)):
        inversions = sum(sigma[u] > sigma[v] for u, v in itertools.combinations(range(k), 2))
        total += (-1) ** inversions * math.prod(matrix[i][sigma[i]] for i in range(k))
    return total


@st.composite
def square_matrices(draw):
    k = draw(st.integers(1, 5))
    return [[draw(st.integers(-30, 30)) for _ in range(k)] for _ in range(k)]


@hypothesis.given(square_matrices())
def test_int_det_matches_leibniz(matrix):
    # The minor search hands `_int_det` tuple rows, the tests list rows.
    assert _int_det(matrix) == leibniz_det(matrix)
    assert _int_det([tuple(row) for row in matrix]) == leibniz_det(matrix)


@st.composite
def nonnegative_upper(draw):
    d = draw(st.integers(1, 5))
    return [[draw(st.integers(0, 9)) if j >= i else 0 for j in range(d)] for i in range(d)]


@hypothesis.given(nonnegative_upper())
def test_skipped_minors_are_nonnegative(matrix):
    d = len(matrix)
    kept = set(_minor_pairs(d))
    for k in range(1, d + 1):
        for rows in itertools.combinations(range(d), k):
            for cols in itertools.combinations(range(d), k):
                if (rows, cols) not in kept:
                    assert leibniz_det([[matrix[i][j] for j in cols] for i in rows]) >= 0


def all_minor_pairs(d):
    return [
        (rows, cols)
        for k in range(1, d + 1)
        for rows in itertools.combinations(range(d), k)
        for cols in itertools.combinations(range(d), k)
    ]


def test_minor_pairs_keep_scan_order():
    for d in range(1, 7):
        full = all_minor_pairs(d)
        kept = _minor_pairs(d)
        assert kept == [pair for pair in full if pair in set(kept)]
    assert (len(all_minor_pairs(4)), len(_minor_pairs(4))) == (69, 8)


def minor_oracle(alphabet, max_n):
    pairs = all_minor_pairs(alphabet.size + 1)
    for n in range(max_n + 1):
        for cw in necklace_oracle(alphabet, n):
            rows = _rotation_sums(cw.canonical, alphabet)
            for r, c in pairs:
                det = leibniz_det([[rows[i][j] for j in c] for i in r])
                if det < 0:
                    return MinorWitness(
                        cw.canonical,
                        n,
                        tuple(i + 1 for i in r),
                        tuple(j + 1 for j in c),
                        Fraction(det, max(n, 1) ** len(r)),
                    )
    return None


@pytest.mark.parametrize("spec, max_n", [("a,b,c,d", 5), ("d,c,b,a", 5), ("c,a,b", 6), ("a,b", 8)])
def test_pruned_minor_search_matches_full_scan(spec, max_n):
    alphabet = Alphabet.parse(spec)
    assert search_negative_minor(alphabet, max_n) == minor_oracle(alphabet, max_n)


@pytest.mark.parametrize("spec, n", [("a,b", 8), ("c,a,b", 6), ("b,c,a", 7), ("a,b,c,d", 4)])
def test_integer_class_keys_match_matrix_keys(spec, n):
    alphabet = Alphabet.parse(spec)
    classes = {}
    for cw in necklace_oracle(alphabet, n):
        classes.setdefault(circular_parikh_matrix(cw).key(), []).append(cw.canonical)
    report = partition_by_matrix(alphabet, n)
    assert list(report.classes.items()) == [(k, tuple(v)) for k, v in classes.items()]
