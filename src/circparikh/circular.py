"""Circular words (necklaces) and their exact Parikh data.

A circular word is the conjugacy class of a linear word under rotation.
It is held by its least rotation (in the alphabet's order), whose primitive
root gives the class size.  `canonicalize` finds that rotation with `str`
operations that run in C: only the rotations starting at a longest run of
the least letter are compared.

Two counting modes exist for a pattern v in a circular word [w]:

* direct_count -- sum, over the rotations of the *pattern*, of ordinary
  subword counts in one fixed representative of [w]; an integer.
* avg_count -- mean of the ordinary subword count of v over the members
  of [w]; an exact rational.

The circular Parikh matrix is the class average of the linear Parikh
matrices.  Both averages conjugate one integer matrix around the word, in
one generated kernel, `words._rotation_kernel`, keyed by pattern length:
`_rotation_total` sums the entries a pattern's callers read, and
`_rotation_sums` every entry of an alphabet's ladder.  A kernel has O(m^2)
generated lines and is compiled once per pattern length (alphabet size
for the ladder) and entries.
"""

from __future__ import annotations

import itertools
import math
import os.path
from fractions import Fraction

from .matrices import UnitriangularMatrix, _alternating, _tri_mul
from .words import Alphabet, _count, _record, _rotation_kernel, mirror
from .words import permutation_identity_check


def cyclic_shift(word: str, i: int) -> str:
    """The i-th cyclic shift; i is reduced mod |word|, shift of λ is λ."""
    if not word:
        return word
    i %= len(word)
    return word[i:] + word[:i]


def conjugacy_class(word: str) -> list:
    """Distinct cyclic shifts, in shift order starting from `word` itself:
    the first |primitive root| shifts, after which they repeat."""
    return [word[i:] + word[:i] for i in range(max(len(primitive_root(word)), 1))]


def primitive_root(word: str) -> str:
    """Shortest prefix v with word = v^k; the word itself when primitive.

    v ends where the word first recurs in its square, at the least shift
    that maps it to itself (-1 for λ, and λ[:-1] is λ)."""
    return word[: (word + word).find(word, 1)]


@_record
class CircularWord:
    """A conjugacy class, held by its canonical (least) rotation.

    `class_size` is the number of distinct rotations, which equals the
    length of the primitive root `period`; the empty circular word has
    class size 1.  Build instances with `canonicalize`, or take them from
    `enumerate_necklaces`.
    """

    alphabet: Alphabet
    canonical: str

    @property
    def length(self) -> int:
        return len(self.canonical)

    @property
    def period(self) -> str:
        return primitive_root(self.canonical)

    @property
    def class_size(self) -> int:
        return max(len(self.period), 1)

    def __str__(self):
        return f"[{self.canonical}]"


def canonicalize(alphabet: Alphabet, word: str) -> CircularWord:
    """Canonical form of the circular word represented by `word`.

    Conjugate representatives map to the same CircularWord.  One
    `str.translate` rejects foreign symbols, then `_canonical` finds the
    least rotation.
    """
    alphabet.validate(word)
    return _canonical(alphabet, word)


def _canonical(alphabet: Alphabet, word: str) -> CircularWord:
    """`canonicalize` of a word known to be over the alphabet, such as a
    rearrangement of a validated word.  Unless the alphabet is already in
    code-point order, one `str.translate` makes code-point order the
    alphabet's order; `_least_start` then finds the least rotation with
    string operations."""
    table = alphabet._to_sorted
    start = _least_start(word.translate(table) if table else word, alphabet._sorted)
    return CircularWord(alphabet, word[start:] + word[:start])


# Above this many longest runs, `_least_start` ranks gaps instead of slicing.
_FEW_RUNS = 8


def _least_start(t: str, letters: str) -> int:
    """Start of a least rotation of t, whose least letter is the first of
    `letters` present in it.

    Following Shiloach ("Fast canonization of circular strings", J.
    Algorithms 2, 1981), a least rotation starts at a longest circular run
    of the least letter.  Its length L is found by bisection on `in` probes
    of t·t and the runs by `str.find`, so Python-level work grows with the
    number of runs, not with |t|.  A few runs are compared as slices of
    t·t.  Otherwise the rotations starting at runs compare as the sequences
    of gaps between runs: a gap holds no L-run and ends in a larger letter,
    so a gap that is a prefix of another is followed by a smaller letter.
    The distinct gaps are ranked by sorting and the gap word, at most half
    as long as t, recurses.
    """
    for least in letters:
        if least in t:
            break
    else:
        return 0  # t is empty
    n = len(t)
    k = t.count(least)
    if k == 1:
        return t.find(least)
    if k == n:
        return 0
    tt = t + t
    lo, hi = 1, 2  # least * lo occurs in t·t, least * hi does not
    while hi <= k and least * hi in tt:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if least * mid in tt:
            lo = mid
        else:
            hi = mid
    run, end = least * lo, n + lo - 1  # runs start before n
    first = tt.find(run, 0, end)
    runs = tt.count(run, 0, end)
    if runs == 1:
        return first
    if runs <= _FEW_RUNS:
        least_rotation, i = tt[first : first + n], first
        for _ in range(runs - 1):
            i = tt.find(run, i + lo + 1, end)
            rotation = tt[i : i + n]
            if rotation < least_rotation:
                least_rotation = rotation
        return tt.find(least_rotation)
    gaps = tt[first : first + n].split(run)[1:]
    rank = {gap: chr(r) for r, gap in enumerate(sorted(set(gaps)))}
    j = _least_start("".join(map(rank.__getitem__, gaps)), "\x00")
    return first + j * lo + sum(map(len, gaps[:j]))


def _swap_results(cw: CircularWord):
    """`canonical(r, x_len, result)`, the canonical form of each rule
    site's result in [w], built once per canonical word w = cw.canonical.

    A site's result is rotation r of w with two disjoint swaps of distinct
    adjacent letters, at p = r + x_len and p + 1 and at q = r + n - 2 and
    q + 1 (mod n).  Read from w's origin, result[n-r:] + result[:n-r] is
    w with those swaps, and it is returned without a search when this
    certificate shows it least; any other site's result goes to
    `_canonical`.  Let a = w[0] be the least letter, L the length of the
    leading run a^L (a longest run of a, w[n-1] is not a) and S the starts
    of w's other runs a^L.  For s in S, c_s is the longest common prefix
    of w and its rotation at s, so w[c_s] < w[s + c_s] (mod n) as w is
    least; c_s = n means w is periodic, and Z below then holds every
    position, so no site is certified.
    The swapped result is least when
    * no swapped position lies in Z = [0, L) and, for each s in S,
      [0, c_s] and [s, s + c_s]: it still begins with a^L followed by a
      larger letter, each s still starts a^L, and its rotation at s
      compares larger at position c_s, as in w;
    * each run of a that a swapped a joins stays shorter than L: it has
      1 + the run of w beside the new a, plus 1 more when the other swap
      moves an a in from the run's other end (x or y is then a's only).
    Then no other rotation starts with a^L, and each that starts with a
    shorter run of a is larger.  Runs an a leaves only shrink.  Nothing
    but letter equality and the order already in w is read, so an alphabet
    outside code-point order needs no `translate`.
    """
    alphabet, w = cw.alphabet, cw.canonical
    n = len(w)
    a = w[:1]
    L = n - len(w.lstrip(a))
    d, run = w + w, a * L
    marks = bytearray(2 * n)  # i is in Z when marks[i] or marks[i + n] is set
    marks[:L] = b"\1" * L
    s = w.find(run, L)
    while s > 0:  # find gives 0 only for λ
        c = len(os.path.commonprefix([w, d[s : s + n]]))
        marks[: c + 1] = b"\1" * (c + 1)
        marks[s : s + c + 1] = b"\1" * (c + 1)
        s = w.find(run, s + L)
    zone = [x | y for x, y in zip(marks, marks[n:])]
    zone += zone[:1]
    # The a's of w from i on and up to i; no run of a wraps around.
    ahead, behind = [0] * (n + 1), [0] * (n + 1)
    for i in range(n):
        if w[i] == a:
            behind[i] = behind[i - 1] + 1
        if w[n - 1 - i] == a:
            ahead[n - 1 - i] = ahead[n - i] + 1
    # grow[i]: the length of the run that a swap at (i, i+1) moves an a
    # into, L if the swap touches Z; meet[i]: the swap that moves a second
    # a into that run, kept only where it makes the run L long.
    grow, meet = [0] * n, [-1] * n
    for i in range(n):
        if zone[i] or zone[i + 1]:
            grow[i] = L
        elif d[i] == a:  # the a moves right, before k a's and the letter at f
            k = ahead[(i + 2) % n]
            grow[i], f = 1 + k, (i + 2 + k) % n
            if k == L - 2 and d[f + 1] == a:
                meet[i] = f
        elif d[i + 1] == a:  # the a moves left, after k a's and the letter at f
            k = behind[i - 1]
            grow[i], f = 1 + k, (i - 1 - k) % n
            if k == L - 2 and d[f - 1 + n] == a:
                meet[i] = (f - 1) % n

    def canonical(r, x_len, result):
        p, q = (r + x_len) % n, (r - 2) % n
        if grow[p] < L > grow[q] and meet[p] != q:
            return CircularWord(alphabet, result[n - r :] + result[: n - r])
        return _canonical(alphabet, result)

    return canonical


def direct_count(cw: CircularWord, pattern: str) -> int:
    """Occurrences of the circular pattern [pattern] in a representative:
    the sum of |w|_u over the distinct rotations u of the pattern, counted
    in one read of w."""
    cw.alphabet.validate(pattern)
    return sum(_count(cw.canonical, *conjugacy_class(pattern)))


def _rotation_sums(word: str, alphabet: Alphabet, shifts: int | None = None) -> tuple:
    """Integer tuple rows whose (i, j) entry sums the count of the ladder
    factor a_{i+1} ... a_j of `alphabet` over the first `shifts` <= |word|
    cyclic shifts of `word` (all of them by default, and for λ its one
    rotation, λ, whose matrix is the identity; a ValueError for a count
    outside 0..|word|), conjugated around the word by the ladder's
    `_rotation_kernel`, generated once per alphabet size; over one shift
    it is `_parikh_rows`.
    """
    n = len(word)
    shifts = n if shifts is None else shifts
    if not 0 <= shifts <= n:
        raise ValueError(f"shifts must be in 0..{n}, got {shifts}")
    return _rotation_kernel(alphabet.size)(word, shifts if word else 1, *alphabet.symbols)


def _rotation_total(word: str, pattern: str, entries) -> int:
    """The flat `entries` of M_v, v = `pattern`, summed over all |word|
    cyclic shifts of `word` (over λ alone, the identity, for λ), each as
    often as it is listed: M_v is a morphism, so rotating the front letter
    x to the back is the conjugation M_v(ux) = M_v(x)^-1 M_v(xu) M_v(x).
    The pattern's `_rotation_kernel`, generated once per length and
    entries, runs it with m letter tests per letter of the word and O(m)
    updates per position of v that holds it."""
    kernel = _rotation_kernel(len(pattern), tuple(entries))
    return kernel(word, max(len(word), 1), *pattern)


def avg_count(cw: CircularWord, pattern: str) -> Fraction:
    """Mean linear subword count of `pattern` over the conjugacy class.

    Computed as the mean over all |w| cyclic shifts of the canonical
    representative, which equals the class mean because each distinct
    conjugate occurs equally often among the shifts.
    """
    cw.alphabet.validate(pattern)
    total = _rotation_total(cw.canonical, pattern, [len(pattern)])
    return Fraction(total, max(cw.length, 1))


def circular_parikh_matrix(cw: CircularWord) -> UnitriangularMatrix:
    """Class average of the linear Parikh matrices of the members of [w].

    Entry (i, j+1) equals avg_count of the ladder subword a_i ... a_j;
    entries are exact rationals.
    """
    return UnitriangularMatrix._from_sums(
        _rotation_sums(cw.canonical, cw.alphabet), max(cw.length, 1)
    )


def _ladder_sums(cw: CircularWord) -> tuple:
    """The rotation sums of the ladder a_1 ... a_s, hashable: |w| times the
    circular Parikh matrix.  Equal sums iff equal matrices, since each fixes
    |w| (diagonal / superdiagonal total)."""
    return _rotation_sums(cw.canonical, cw.alphabet)


def binary_closed_form(na: int, nb: int) -> UnitriangularMatrix:
    """The circular Parikh matrix of any binary circular word with letter
    counts (na, nb): top row (1, na, na*nb/2), middle row (0, 1, nb)."""
    if na < 0 or nb < 0:
        raise ValueError("letter counts must be non-negative")
    return UnitriangularMatrix._from_sums(((2, 2 * na, na * nb), (0, 2, 2 * nb), (0, 0, 2)), 2)


def m_equivalent(cw1: CircularWord, cw2: CircularWord) -> bool:
    """Whether two circular words share the same circular Parikh matrix."""
    if cw1.alphabet != cw2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {cw1.alphabet} vs {cw2.alphabet}"
        )
    return _ladder_sums(cw1) == _ladder_sums(cw2)


def mirror_class(cw: CircularWord) -> CircularWord:
    """The circular word of the reversed representative."""
    return canonicalize(cw.alphabet, mirror(cw.canonical))


def circular_inverse_alternate_check(cw: CircularWord) -> bool:
    """Check (alphabets of size <= 3 only) that the inverse of the circular
    Parikh matrix equals the alternate matrix of the mirrored class."""
    if cw.alphabet.size > 3:
        raise ValueError("holds only for alphabets of size at most 3")
    return _sums_inverse_alternate(
        _ladder_sums(cw), _ladder_sums(mirror_class(cw)), max(cw.length, 1)
    )


def _sums_inverse_alternate(sums, mirror_sums, n: int) -> bool:
    """M^-1 = alt(M') iff M alt(M') = I iff T alt(T') = n^2 I, with T and T'
    the ladder sums of [w] and of its mirror and n = max(|w|, 1)."""
    product = _tri_mul(sums, _alternating(mirror_sums))
    d = len(product)
    square = [0] * (d * d)
    square[:: d + 1] = [n * n] * d
    return list(itertools.chain.from_iterable(product)) == square


def circular_power_check(cw: CircularWord, p: int) -> bool:
    """Check (alphabets of size <= 3 only) that the matrix of [w^p] is the
    p-th power of the matrix of [w]."""
    if cw.alphabet.size > 3:
        raise ValueError("holds only for alphabets of size at most 3")
    # bool is an int subclass; True is not a power
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"power must be a positive integer, got {p!r}")
    sums = power = _ladder_sums(cw)
    for _ in range(p - 1):
        power = _tri_mul(power, sums)
    return _power_holds(cw, p, power)


def _power_holds(cw: CircularWord, p: int, power) -> bool:
    """M_p = M^p iff n^p T_p = L_p T^p, with T the ladder sums of [w] over
    n = max(|w|, 1) and T_p those of [w^p] over L_p = max(p |w|, 1).

    Since rot_{k+|w|}(w^p) = rot_k(w^p), T_p = p S with S the sums over the
    first |w| shifts of w^p, so the test is n^(p-1) S = T^p; for λ, S = T = I,
    and for p = 1, S = T.  `power` is T^p.
    """
    if p == 1:
        shifted = power
    else:
        shifted = _rotation_sums(cw.canonical * p, cw.alphabet, cw.length)
    scale = max(cw.length, 1) ** (p - 1)
    flat = itertools.chain.from_iterable
    return list(map(scale.__mul__, flat(shifted))) == list(flat(power))


def weak_ratio(alphabet: Alphabet, u: str, v: str) -> bool:
    """Binary weak ratio property: |u|_a |v|_b = |v|_a |u|_b."""
    if alphabet.size != 2:
        raise ValueError(f"requires a binary alphabet, got size {alphabet.size}")
    alphabet.validate(u)
    alphabet.validate(v)
    a, b = alphabet.symbols
    return u.count(a) * v.count(b) == v.count(a) * u.count(b)


def product_identity_check(cw: CircularWord) -> bool:
    """Check that the avg_count values of all s! full-alphabet permutation
    words sum to the product of the single-letter counts: in integers, that
    their rotation sums add up to n times the product, n = max(|w|, 1)."""
    return _product_identity_holds(cw, _coverings(cw.alphabet))


def _coverings(alphabet: Alphabet) -> list:
    """The patterns π·π[:-1], one per permutation π of the alphabet that
    starts with the least symbol, each with the flat indices of its
    entries (i, i+s), i < s.  The s rotations of π are the length-s factors
    of π·π[:-1], so these cover every permutation."""
    least, *rest = alphabet.symbols
    s = alphabet.size
    pis = (least + "".join(p) for p in itertools.permutations(rest))
    return [(pi + pi[:-1], [i * (2 * s) + i + s for i in range(s)]) for pi in pis]


def _product_identity_holds(cw: CircularWord, coverings: list) -> bool:
    """The permutation-sum identity of [w], given the `_coverings` of its
    alphabet: one kernel call per covering π·π[:-1], whose entries (i, i+s)
    sum rotation i of π."""
    w = cw.canonical
    syms = cw.alphabet.symbols
    total = sum(_rotation_total(w, pattern, entries) for pattern, entries in coverings)
    return total == max(cw.length, 1) * math.prod(w.count(x) for x in syms)


def slender_partition_check(cw: CircularWord) -> bool:
    """Check that direct_count over one representative per conjugacy class
    of the length-s slender words sums to the product of letter counts.
    A slender word has exactly one rotation that starts with the least
    symbol, so the permutations that do are the representatives; their
    rotations are the s! permutations, each once, so this is the
    permutation identity of w, checked in one read of w."""
    return permutation_identity_check(cw.alphabet, cw.canonical)
