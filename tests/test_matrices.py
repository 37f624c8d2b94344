import copy
import json
import pickle
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from circparikh import (
    Alphabet,
    UnitriangularMatrix,
    canonicalize,
    circular_parikh_matrix,
    enumerate_necklaces,
    matrices,
    parikh_matrix,
    parse_rational,
)
from circparikh.matrices import _rational_text

ABC = Alphabet("abc")
F = Fraction


def test_identity_product():
    i4 = UnitriangularMatrix.identity(4)
    assert i4 * i4 == i4


def test_letter_product_matches_word_matrix():
    # multiplying the one-letter matrices letter by letter gives the word's matrix
    product = UnitriangularMatrix.identity(4)
    for ch in "bacbc":
        product = product * parikh_matrix(ABC, ch)
    assert product == parikh_matrix(ABC, "bacbc")
    assert product.rows == (
        (1, 1, 1, 1),
        (0, 1, 2, 3),
        (0, 0, 1, 2),
        (0, 0, 0, 1),
    )


def test_square_of_binary_circular_matrix():
    half = UnitriangularMatrix([[1, 1, F(1, 2)], [0, 1, 1], [0, 0, 1]])
    squared = half * half
    assert squared.rows == ((1, 2, 2), (0, 1, 2), (0, 0, 1))
    # cross-check against the circular matrix of the doubled word
    assert squared == circular_parikh_matrix(canonicalize(Alphabet("ab"), "abab"))


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        UnitriangularMatrix.identity(3) * UnitriangularMatrix.identity(4)


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        UnitriangularMatrix([[1]])  # dim < 2
    with pytest.raises(ValueError):
        UnitriangularMatrix([[1, 0], [0, 2]])  # bad diagonal
    with pytest.raises(ValueError):
        UnitriangularMatrix([[1, 0], [3, 1]])  # below diagonal
    with pytest.raises(ValueError):
        UnitriangularMatrix([[1, 0, 0], [0, 1, 0]])  # not square


SAMPLE_DIM4 = [
    parikh_matrix(ABC, w) for w in ("bacbc", "aabcbc", "abcabc", "ccbbaa", "")
] + [
    UnitriangularMatrix(
        [
            [1, F(1, 2), F(1, 3), 5],
            [0, 1, F(2, 7), F(3, 2)],
            [0, 0, 1, F(11, 4)],
            [0, 0, 0, 1],
        ]
    )
]


def test_power_base_cases():
    for matrix in SAMPLE_DIM4:
        assert matrix**0 == UnitriangularMatrix.identity(4)
        assert matrix**1 == matrix


def test_power_matches_repeated_multiplication():
    for matrix in SAMPLE_DIM4:
        running = UnitriangularMatrix.identity(4)
        for p in range(7):
            assert matrix**p == running
            running = running * matrix


@pytest.mark.parametrize("p, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_power_uses_no_wasted_product(monkeypatch, p, products):
    import circparikh.matrices as matrices

    real = matrices._tri_mul
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(matrices, "_tri_mul", counting)
    SAMPLE_DIM4[0] ** p
    assert len(calls) == products


def test_power_negative_exponent_rejected():
    with pytest.raises(ValueError):
        UnitriangularMatrix.identity(3) ** -1


@pytest.mark.parametrize("exponent", [2.0, True, False])
def test_power_non_integer_exponent_rejected(exponent):
    # bool is an int subclass, but True is not the exponent 1.
    with pytest.raises(ValueError, match="exponent must be an integer"):
        UnitriangularMatrix.identity(3) ** exponent


def _dim4_power_entries(matrix, p):
    a = matrix.rows
    return {
        (0, 1): p * a[0][1],
        (1, 2): p * a[1][2],
        (2, 3): p * a[2][3],
        (0, 2): p * a[0][2] + comb(p, 2) * a[0][1] * a[1][2],
        (1, 3): p * a[1][3] + comb(p, 2) * a[1][2] * a[2][3],
        (0, 3): p * a[0][3]
        + comb(p, 2) * (a[0][1] * a[1][3] + a[0][2] * a[2][3])
        + comb(p, 3) * a[0][1] * a[1][2] * a[2][3],
    }


def test_power_closed_forms_dim4():
    # binomial closed forms for every strictly-upper entry, 0 <= p <= 6
    for matrix in SAMPLE_DIM4:
        for p in range(7):
            powered = matrix**p
            for (i, j), expected in _dim4_power_entries(matrix, p).items():
                assert powered.rows[i][j] == expected


def test_power_closed_forms_dim3():
    samples = [
        UnitriangularMatrix([[1, 2, F(5, 3)], [0, 1, 4], [0, 0, 1]]),
        UnitriangularMatrix([[1, F(1, 2), F(1, 2)], [0, 1, 1], [0, 0, 1]]),
    ]
    for matrix in samples:
        a = matrix.rows
        for p in range(7):
            powered = matrix**p
            assert powered.rows[0][1] == p * a[0][1]
            assert powered.rows[1][2] == p * a[1][2]
            assert powered.rows[0][2] == p * a[0][2] + comb(p, 2) * a[0][1] * a[1][2]


def test_inverse_of_identity():
    i5 = UnitriangularMatrix.identity(5)
    assert i5.inverse() == i5


def test_inverse_times_original_is_identity():
    for matrix in SAMPLE_DIM4:
        assert matrix * matrix.inverse() == UnitriangularMatrix.identity(4)
        assert matrix.inverse() * matrix == UnitriangularMatrix.identity(4)


def test_inverse_entry_formula_ternary():
    # (1,3) entry of the inverse of a ternary word matrix is |w|_a|w|_b - |w|_ab
    from circparikh import count_subword

    for w in ("bacbc", "aabcbc", "cabacb", "abc", ""):
        inv = parikh_matrix(ABC, w).inverse()
        assert inv.rows[0][2] == w.count("a") * w.count("b") - count_subword(w, "ab")


def test_inverse_of_circular_ternary_example():
    matrix = UnitriangularMatrix(
        [
            [1, 1, F(2, 3), F(1, 3)],
            [0, 1, 1, F(2, 3)],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]
    )
    assert matrix == circular_parikh_matrix(canonicalize(ABC, "abc"))
    inv = matrix.inverse()
    assert inv.rows[0][3] == 0
    assert inv.rows[0][2] == F(1, 3)
    assert matrix * inv == UnitriangularMatrix.identity(4)


def test_alternate_identity_and_involution():
    i4 = UnitriangularMatrix.identity(4)
    assert i4.alternate() == i4
    for matrix in SAMPLE_DIM4:
        assert matrix.alternate().alternate() == matrix


def test_alternate_sign_pattern():
    matrix = UnitriangularMatrix(
        [
            [1, 1, F(1, 3), 0],
            [0, 1, 1, F(1, 3)],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]
    )
    assert matrix == circular_parikh_matrix(canonicalize(ABC, "cba"))
    assert matrix.alternate().rows == (
        (1, -1, F(1, 3), 0),
        (0, 1, -1, F(1, 3)),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
    )
    # matches the inverse of the mirrored class's matrix
    assert matrix.alternate() == circular_parikh_matrix(canonicalize(ABC, "abc")).inverse()


def test_key_examples():
    assert UnitriangularMatrix.identity(3).key() == "0,0,0"
    ab = Alphabet("ab")
    assert circular_parikh_matrix(canonicalize(ab, "abab")).key() == "2,2,2"
    assert circular_parikh_matrix(canonicalize(ab, "ab")).key() == "1,1/2,1"


def test_key_injective_on_necklace_matrices():
    matrices = []
    for n in range(6):
        for cw in enumerate_necklaces(ABC, n):
            matrices.append(circular_parikh_matrix(cw))
    for m1 in matrices:
        for m2 in matrices:
            assert (m1.key() == m2.key()) == (m1 == m2)


def test_json_round_trip_is_byte_identical():
    for matrix in SAMPLE_DIM4:
        text = matrix.to_json()
        again = UnitriangularMatrix.from_json(text)
        assert again == matrix
        assert again.to_json() == text


def test_json_shape():
    data = json.loads(parikh_matrix(ABC, "abc").to_json())
    assert set(data) == {"dim", "entries"}
    assert data["dim"] == 4
    assert all(isinstance(e, str) for row in data["entries"] for e in row)


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        UnitriangularMatrix.from_json('{"dim": 2}')
    with pytest.raises(ValueError):
        UnitriangularMatrix.from_json('{"dim": 3, "entries": [["1"]]}')
    with pytest.raises(ValueError, match="zero denominator"):
        UnitriangularMatrix.from_json('{"dim": 2, "entries": [["1", "1/0"], ["0", "1"]]}')
    for entry in ("3\\n", "\\u0663", " 3"):
        with pytest.raises(ValueError, match="not a rational literal"):
            UnitriangularMatrix.from_json('{"dim": 2, "entries": [["1", "%s"], ["0", "1"]]}' % entry)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 2, "entries": 5}', "entries must be a list"),
        ('{"dim": 2, "entries": {"0": [1, 0]}}', "entries must be a list"),
        ('{"dim": "2", "entries": [[1, 0], [0, 1]]}', "dim must be an integer"),
        ('{"dim": 2.0, "entries": [[1, 0], [0, 1]]}', "dim must be an integer"),
        ('{"dim": true, "entries": [[1]]}', "dim must be an integer"),
        ('{"dim": 2, "entries": [["1", "0"], ["1"]]}', "^expected rows of length 2$"),
        ('{"dim": 2, "entries": [["1", "0"], "01"]}', "^expected rows of length 2$"),
    ],
)
def test_from_json_type_checks_dim_and_entries(text, message):
    with pytest.raises(ValueError, match=message):
        UnitriangularMatrix.from_json(text)


def test_operators_with_other_types():
    # Multiplying by an int and comparing with a tuple fall back to Python's
    # defaults: a TypeError and inequality.
    identity = UnitriangularMatrix.identity(2)
    with pytest.raises(TypeError):
        identity * 2
    assert identity != ((1, 0), (0, 1))


def test_equal_matrices_hash_equal():
    a = UnitriangularMatrix([[1, F(1, 2)], [0, 1]])
    b = UnitriangularMatrix.from_json('{"dim": 2, "entries": [["1", "2/4"], ["0", "1"]]}')
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_from_json_rejects_booleans():
    with pytest.raises(ValueError):
        UnitriangularMatrix.from_json('{"dim": 2, "entries": [[true, 5], [false, true]]}')
    with pytest.raises(ValueError):
        UnitriangularMatrix.from_json('{"dim": 2, "entries": [[1, false], [0, 1]]}')
    assert UnitriangularMatrix.from_json('{"dim": 2, "entries": [[1, 5], [0, 1]]}').rows[0][1] == 5


@pytest.mark.parametrize("entry", [0.1, True, "0.5", Decimal("0.1")])
def test_construction_rejects_inexact_entries(entry):
    # 0.1 would enter as 3602879701896397/36028797018963968 and True as 1.
    with pytest.raises(ValueError, match="not a rational literal"):
        UnitriangularMatrix([[1, entry], [0, 1]])


@pytest.mark.parametrize("entry, value", [(3, 3), (F(1, 2), F(1, 2)), ("1/2", F(1, 2))])
def test_construction_accepts_exact_entries(entry, value):
    matrix = UnitriangularMatrix([[1, entry], [0, 1]])
    assert matrix.rows[0][1] == value and type(matrix.rows[0][1]) is Fraction


def test_parse_rational():
    assert parse_rational("3/6") == F(1, 2)
    assert parse_rational("-4") == -4
    # "3\n" once passed a `$` anchor, and "\u0663" (ARABIC-INDIC DIGIT
    # THREE) a `\d`; Fraction itself accepts both.
    for bad in ("1.5", "a", "1/2/3", "", "3/0", "3\n", "\u0663", " 3", "3/\u0664"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("name", ["rows", "dim", "_sums", "_q", "_rows", "_cells", "other"])
def test_matrix_attributes_are_read_only(name):
    matrix = UnitriangularMatrix([[1, 2], [0, 1]])
    table = {matrix: "found"}
    with pytest.raises(AttributeError):
        setattr(matrix, name, ((1, 5), (0, 1)))
    with pytest.raises(AttributeError):
        delattr(matrix, name)
    assert matrix.rows == ((1, 2), (0, 1)) and matrix.dim == 2
    assert table.get(UnitriangularMatrix([[1, 2], [0, 1]])) == "found"


def test_rows_are_built_once():
    matrix = circular_parikh_matrix(canonicalize(ABC, "cabacb"))
    assert matrix.rows is matrix.rows


def test_texts_are_built_once(monkeypatch):
    # Printed as text, as JSON and as its repr, a 4 x 4 matrix prints each
    # of its 6 strictly upper entries once.
    matrix = circular_parikh_matrix(canonicalize(ABC, "cabacb"))
    printed = []

    def counting(e, q):
        printed.append(e)
        return _rational_text(e, q)

    monkeypatch.setattr(matrices, "_rational_text", counting)
    texts = matrix.pretty(), matrix.to_json(), repr(matrix)
    assert (matrix.pretty(), matrix.to_json(), repr(matrix)) == texts
    assert len(printed) == 6


def test_copies_and_pickles_are_equal():
    for matrix in SAMPLE_DIM4:
        for again in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
            assert again == matrix and hash(again) == hash(matrix)
            assert again.to_json() == matrix.to_json() and again.rows == matrix.rows


def test_exactness_no_floats():
    matrix = circular_parikh_matrix(canonicalize(ABC, "cabacb"))
    for row in matrix.rows:
        for entry in row:
            assert isinstance(entry, Fraction)
