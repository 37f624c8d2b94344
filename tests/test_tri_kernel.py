"""The generated triangular product against the loop it replaced.

`matrices._tri_mul` runs `_tri_kernel(d)`, straight-line code generated
once per dimension d.  The oracle, `loop_tri_mul` below, is the loop that
`_tri_mul` used to be: for each entry (i, j), i <= j, the sum of
a[i][k] b[k][j] over k in [i, j] from 0, and below the diagonal a's own
entries.  Both are checked on int and `Fraction` entries, for d = 0..6,
on factors whose entries below the diagonal are arbitrary, so the kernel
must keep a's and ignore b's as the loop does.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_matrices import SAMPLE_DIM4

from circparikh import (
    Alphabet,
    UnitriangularMatrix,
    circular_inverse_alternate_check,
    circular_power_check,
    enumerate_necklaces,
    matrices,
)
from circparikh.matrices import _tri_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def loop_tri_mul(a, b):
    """The triangular product as a loop over k in [i, j] per entry."""
    d = len(a)
    product = []
    for i, row in enumerate(a):
        out = list(row[:i])
        for j in range(i, d):
            total = 0
            for k in range(i, j + 1):
                total += row[k] * b[k][j]
            out.append(total)
        product.append(tuple(out))
    return tuple(product)


@st.composite
def factor_pairs(draw, entries):
    """Two d x d factors, d in 0..6, every entry drawn from `entries`,
    below the diagonal too."""
    d = draw(st.integers(0, 6))

    def one():
        flat = draw(st.lists(entries, min_size=d * d, max_size=d * d))
        return tuple(tuple(flat[i * d : i * d + d]) for i in range(d))

    return one(), one()


INTS = st.integers(-(10**12), 10**12)
FRACTIONS = st.builds(Fraction, INTS, st.integers(1, 50))


@pytest.mark.parametrize("entries", [INTS, FRACTIONS], ids=["int", "Fraction"])
def test_generated_product_matches_the_loop(entries):
    @hypothesis.given(factor_pairs(entries))
    def check(pair):
        a, b = pair
        product = _tri_mul(a, b)
        expected = loop_tri_mul(a, b)
        assert product == expected
        assert type(product) is tuple and all(type(row) is tuple for row in product)
        assert [type(e) for row in product for e in row] == [type(e) for row in expected for e in row]

    check()


@pytest.mark.parametrize("d", range(7))
def test_below_the_diagonal_are_as_own_entries(d):
    # Distinct zero objects below the diagonal of a: the product keeps each
    # one itself, of a's entry type, and b's below-diagonal entries are
    # never read.
    a = tuple(
        tuple(Fraction(0) if j < i else Fraction(i + 1, j + 2) for j in range(d)) for i in range(d)
    )
    b = tuple(tuple(None if j < i else i - j + 3 for j in range(d)) for i in range(d))
    product = _tri_mul(a, b)
    for i, j in itertools.product(range(d), repeat=2):
        if j < i:
            assert product[i][j] is a[i][j]
    assert product == loop_tri_mul(a, b)


@pytest.fixture
def generated(monkeypatch):
    """The dimensions `_tri_kernel` generates code for, from an empty cache."""
    dims, source = [], matrices._tri_source

    def recording(d):
        dims.append(d)
        return source(d)

    monkeypatch.setattr(matrices, "_tri_source", recording)
    matrices._tri_kernel.cache_clear()
    yield dims
    matrices._tri_kernel.cache_clear()


def test_one_generation_per_dimension(generated):
    for d in range(2, 6):
        identity = UnitriangularMatrix.identity(d)
        for p in range(6):
            identity**p * identity
    for spec in ("ab", "abc"):
        for n in range(6):
            for cw in enumerate_necklaces(Alphabet(spec), n):
                circular_power_check(cw, 3)
                circular_inverse_alternate_check(cw)
    for matrix in SAMPLE_DIM4:
        matrix * matrix
    assert generated == [2, 3, 4, 5]


def test_nothing_is_generated_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import circparikh; from circparikh.matrices import _tri_kernel; "
        "circparikh.UnitriangularMatrix.identity(4); print(_tri_kernel.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_matrix_operations_match_the_loop_on_the_samples():
    identity = UnitriangularMatrix.identity(4).rows
    for a, b in itertools.product(SAMPLE_DIM4, repeat=2):
        assert (a * b).rows == loop_tri_mul(a.rows, b.rows)
    for a in SAMPLE_DIM4:
        running = identity
        for p in range(7):
            assert (a**p).rows == running
            running = loop_tri_mul(running, a.rows)
        inverse = a.inverse().rows
        assert loop_tri_mul(inverse, a.rows) == loop_tri_mul(a.rows, inverse) == identity
