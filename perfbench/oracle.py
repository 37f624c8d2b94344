"""Independent integer oracle for the long-words output checks.

The generalized Parikh matrix M_v(w) of a pattern v = v_0 ... v_{m-1}
is the (m+1)x(m+1) unitriangular integer matrix whose (i, j) entry
counts the factor v_i ... v_{j-1} of v as a scattered subword of w.  It
is a morphism, M_v(xu) = M_v(x) M_v(u), so rotating one letter x from
the front of a word to its back is a conjugation,

    M_v(ux) = M_v(x)^-1 M_v(xu) M_v(x),

and the sum over all n rotations costs O(n m^2) instead of the O(n^2 m)
of recounting every rotation.  With v the ordered alphabet, M_v is the
ordinary Parikh matrix.  None of this shares code with the package.
"""

from __future__ import annotations


def parikh_rows(pattern: str, word: str) -> list:
    """M_pattern(word) as a list of integer rows."""
    m = len(pattern)
    rows = [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
    for ch in word:
        _append(rows, pattern, ch)
    return rows


def _append(rows, pattern, ch) -> None:
    # rows <- rows * M(ch): column k+1 gains column k wherever pattern[k] == ch;
    # descending k reads column k before it changes.
    for k in range(len(pattern) - 1, -1, -1):
        if pattern[k] == ch:
            for i in range(k + 1):
                rows[i][k + 1] += rows[i][k]


def _drop_front(rows, pattern, ch) -> None:
    # rows <- M(ch)^-1 * rows: row k loses the new row k+1 wherever pattern[k] == ch.
    for k in range(len(pattern) - 1, -1, -1):
        if pattern[k] == ch:
            below, row = rows[k + 1], rows[k]
            for j in range(k + 1, len(row)):
                row[j] -= below[j]


def rotation_sum(pattern: str, word: str) -> list:
    """Entrywise sum of M_pattern(u) over the |word| cyclic shifts u of word."""
    rows = parikh_rows(pattern, word)
    total = [row[:] for row in rows]
    for ch in word[:-1]:
        _drop_front(rows, pattern, ch)
        _append(rows, pattern, ch)
        for trow, row in zip(total, rows):
            for j, value in enumerate(row):
                trow[j] += value
    return total


def count(word: str, pattern: str) -> int:
    return parikh_rows(pattern, word)[0][-1]
