"""Rewriting rules that preserve Parikh matrices, linear and circular.

All rules are stated for a ternary ordered alphabet {a < b < c} (roles are
taken from the alphabet's order, whatever the actual symbols are):

* E1 (linear): swap one factor ac <-> ca; the linear Parikh matrix is
  unchanged.
* E2 (linear): rewrite x·αb·y·bα·z into x·bα·y·αb·z for α in {a, c} and
  y over {α, b} only; the linear Parikh matrix is unchanged.
* CE1 (circular): a rotation x·ac·y·ca becomes x·ca·y·ac.  The circular
  matrices agree exactly when |y|_b (|x|_a - |x|_c) = |x|_b (|y|_a - |y|_c).
* CE2 (circular): a rotation x·αb·y·bα becomes x·bα·y·αb, α in {a, c},
  y unrestricted.  The circular matrices agree exactly when
  |x|_ᾱ (|y| + |y|_b + 3) = |y|_ᾱ (|x| + |x|_b + 3), ᾱ the third letter.

Circular rule sites are searched over every rotation of the canonical
representative, since a circular word has no distinguished start.  The
swap pattern is matched in its forward orientation only: the reverse
application of a rule at one rotation is the forward application at
another, so the sweep already yields a symmetric (involutive) move set.
Each swap and its side condition are written once, in `_rules`.  The
swap geometry x·head·y·tail -> x·tail·y·head is spelled here: `_sites`
finds each site, and beside it `_swap_results`, the listing certificate,
canonicalizes a site's result from the two swapped positions.  The one
other reader is `enumeration._ce_iff`, which joins both words of each
swap in its table to check the condition against M-equivalence.
"""

from __future__ import annotations

import functools
import os.path
from collections import deque, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .circular import CircularWord, _canonical, avg_count, canonicalize, conjugacy_class, m_equivalent
from .words import Alphabet, _record, parikh_vector


@_record
class RuleApplication:
    """One rule site: rotation index of the representative scanned, the
    lengths of the x and y parts (which pin the swap positions), the α
    symbol for CE2, both sides of the side condition, and the resulting
    circular word.  The application preserves M-equivalence iff `valid`."""

    rule: str
    rotation: int
    x_len: int
    y_len: int
    alpha: str | None
    condition_lhs: int
    condition_rhs: int
    result: CircularWord

    @property
    def valid(self) -> bool:
        return self.condition_lhs == self.condition_rhs


def apply_e1(alphabet: Alphabet, word: str) -> set:
    """All words reachable from one ac <-> ca factor swap, each factor
    found by `str.find`."""
    e1 = _rules(alphabet.symbols).e1
    alphabet.validate(word)
    out = set()
    for factor, opposite in e1:
        i = word.find(factor)
        while i != -1:
            out.add(word[:i] + opposite + word[i + 2 :])
            i = word.find(factor, i + 1)
    return out


def apply_e2(alphabet: Alphabet, word: str) -> set:
    """All words reachable from one x·αb·y·bα·z <-> x·bα·y·αb·z swap with
    y restricted to {α, b}, from one scan of the word for both α."""
    swaps = _rules(alphabet.symbols).e2
    alphabet.validate(word)
    n = len(word)
    out = set()
    for i in range(n - 3):
        first = word[i : i + 2]
        swap = swaps.get(first)
        if swap is None:
            continue
        second, stop = swap
        # y = word[i+2 : j] stays over {α, b} until the first ᾱ.
        for j in range(i + 2, n - 1):
            if word[j : j + 2] == second:
                out.add(word[:i] + second + word[i + 2 : j] + first + word[j + 2 :])
            if word[j] == stop:
                break
    return out


def _counts(text: str, roles: tuple) -> tuple:
    """How often each of the three letters of `roles` occurs in text."""
    a, b, c = roles
    return text.count(a), text.count(b), text.count(c)


def _ce1_sides(x: tuple, y: tuple) -> tuple:
    """The CE1 condition's sides from the counts (|·|_a, |·|_b, |·|_c) of x
    and of y."""
    xa, xb, xc = x
    ya, yb, yc = y
    return yb * (xa - xc), xb * (ya - yc)


def _ce2_sides(x: tuple, y: tuple) -> tuple:
    """The CE2 condition's sides from the counts (|·|_α, |·|_b, |·|_ᾱ) of x
    and of y: |x| + |x|_b is |x|_α + 2|x|_b + |x|_ᾱ."""
    xa, xb, xbar = x
    ya, yb, ybar = y
    return xbar * (ya + 2 * yb + ybar + 3), ybar * (xa + 2 * xb + xbar + 3)


_Rules = namedtuple("_Rules", "factors e1 e2 indicators")


@functools.cache
def _rules(symbols: tuple) -> _Rules:
    """The rule tables of the ternary alphabet a < b < c of `symbols`,
    compiled on the first use of the symbol order; a ValueError for an
    alphabet of any other size:

    * factors: "CE1" and "CE2" -> the rule's swaps x·head·y·tail ->
      x·tail·y·head as (α, head, tail, roles, sides), one for CE1 (α None),
      one per α in {a, c} for CE2, where sides maps the counts of the
      `roles` letters in x and in y to both sides of the side condition;
    * e1: (factor, opposite) for the factors ac and ca that E1 swaps,
      CE1's head and tail, each way;
    * e2: each factor αb and bα that E2 swaps -> (its opposite, ᾱ, the
      letter that ends y, which may hold only α and b);
    * indicators: (letter, table) per letter, where `str.translate` by the
      table maps the letter to chr(1) and the others to chr(0).
    """
    if len(symbols) != 3:
        raise ValueError(f"rewriting rules require a ternary alphabet, got size {len(symbols)}")
    a, b, c = symbols
    ce1 = ((None, a + c, c + a, (a, b, c), _ce1_sides),)
    ce2 = (
        (a, a + b, b + a, (a, b, c), _ce2_sides),
        (c, c + b, b + c, (c, b, a), _ce2_sides),
    )
    ((_, head, tail, _, _),) = ce1
    e1 = (head, tail), (tail, head)
    e2 = {}
    for _, head, tail, (_, _, bar), _ in ce2:
        e2[head] = tail, bar
        e2[tail] = head, bar
    indicators = tuple(
        (letter, {ord(x): int(x == letter) for x in symbols}) for letter in symbols
    )
    return _Rules({"CE1": ce1, "CE2": ce2}, e1, e2, indicators)


def _sites(cw: CircularWord, rule: str):
    """Every site of `rule` in [w] as ((r, |x|, |y|, α, lhs, rhs), result):
    each rotation r of the canonical word that factors as x·head·y·tail for
    one of the rule's swaps, both sides of its side condition, and the
    linear word x·tail·y·head; ordered by r, then α, then |x|.

    Rotation r is d[r : r+n] of d = w·w, so it is anchored at a tail found
    at t = r+n-2, and its heads are found in d[r : t], all by `str.find`.
    The letter counts of x = d[r : i] and y = d[i+2 : t] are differences of
    prefix counts of d, and the result is joined from slices of d: O(n)
    Python work per word plus O(1) per site.
    """
    rules = _rules(cw.alphabet.symbols)
    w = cw.canonical
    n = len(w)
    d = w + w
    factors = rules.factors[rule]
    anchors = sorted(
        (t, k)
        for k, (_, _, tail, *_) in enumerate(factors)
        for t in _find_all(d, tail, n - 2, 2 * n - 1)
    )
    if not anchors:
        return
    # d encodes to the bytes of each letter's indicator, which `accumulate`
    # sums in C.
    prefix = {
        letter: list(accumulate(d.translate(table).encode(), initial=0))
        for letter, table in rules.indicators
    }
    swaps = [
        (alpha, head, tail, [prefix[letter] for letter in roles], sides)
        for alpha, head, tail, roles, sides in factors
    ]
    for t, k in anchors:
        r = t - n + 2
        alpha, head, tail, (p0, p1, p2), sides = swaps[k]
        for i in _find_all(d, head, r, t):
            j = i + 2
            x = (p0[i] - p0[r], p1[i] - p1[r], p2[i] - p2[r])
            y = (p0[t] - p0[j], p1[t] - p1[j], p2[t] - p2[j])
            lhs, rhs = sides(x, y)
            yield (r, i - r, t - j, alpha, lhs, rhs), d[r:i] + tail + d[j:t] + head


def _find_all(text: str, sub: str, start: int, end: int):
    """The starts of `sub` in text[start : end], ascending."""
    i = text.find(sub, start, end)
    while i != -1:
        yield i
        i = text.find(sub, i + 1, end)


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


def _applications(cw: CircularWord, rules) -> list:
    """Every site of each of `rules` in [w], rule by rule, with its
    canonical result, which rearranges the letters of [w] and so needs no
    validation; the listing certificate is built once for them all."""
    canonical = _swap_results(cw)
    return [
        RuleApplication(rule, *site, canonical(site[0], site[1], result))
        for rule in rules
        for site, result in _sites(cw, rule)
    ]


def find_ce1(cw: CircularWord) -> list:
    """Every CE1 site of [w]: each rotation that factors as x·ac·y·ca."""
    return _applications(cw, ("CE1",))


def find_ce2(cw: CircularWord) -> list:
    """Every CE2 site of [w]: each rotation that factors as x·αb·y·bα
    (α in {a, c}, y arbitrary)."""
    return _applications(cw, ("CE2",))


@dataclass(frozen=True)
class NaiveFailure:
    """A documented counterexample to applying a linear rule circularly."""

    rule: str
    left: CircularWord
    right: CircularWord
    pattern: str
    left_count: Fraction
    right_count: Fraction
    equivalent: bool


def naive_rule_failure_examples() -> list:
    """The two fixed counterexamples showing that E1 and E2, applied to
    circular words as if they were linear, do not preserve M-equivalence."""
    abc = Alphabet("abc")

    def entry(rule, w1, w2, pattern):
        c1 = canonicalize(abc, w1)
        c2 = canonicalize(abc, w2)
        return NaiveFailure(
            rule,
            c1,
            c2,
            pattern,
            avg_count(c1, pattern),
            avg_count(c2, pattern),
            m_equivalent(c1, c2),
        )

    return [entry("E1", "acb", "cab", "ab"), entry("E2", "abbac", "baabc", "abc")]


@_record
class RewriteEdge:
    source: CircularWord
    target: CircularWord
    application: RuleApplication


@dataclass(frozen=True)
class RewriteGraph:
    """Closure of valid rule applications: nodes in discovery order, one
    edge per (source, target, rule).  `complete` is False when the node
    budget stopped the expansion; edges to targets left out are dropped."""

    nodes: tuple
    edges: tuple
    complete: bool

    def to_dot(self) -> str:
        # Node names and symbols are escaped once, not once per edge.
        names = {node.canonical: node.canonical.translate(_DOT_ESCAPES) for node in self.nodes}
        symbols = {s: s.translate(_DOT_ESCAPES) for node in self.nodes[:1] for s in node.alphabet}
        lines = ["graph rewrites {"]
        for node in self.nodes:
            name = names[node.canonical]
            lines.append(f'  "{name}" [label="[{name}]"];')
        for edge in self.edges:
            app = edge.application
            if app.rule == "CE1":
                label = f"CE1@r={app.rotation},|x|={app.x_len}"
            else:
                label = f"CE2@r={app.rotation},α={symbols[app.alpha]}"
            lines.append(
                f'  "{names[edge.source.canonical]}" -- "{names[edge.target.canonical]}" '
                f'[label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)


# A DOT quoted string escapes a backslash and a double quote.
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})


def rewrite_closure(cw: CircularWord, rules=("CE1", "CE2"), max_steps: int = 100000) -> RewriteGraph:
    """Breadth-first closure of valid CE1/CE2 applications from [w].

    Every node is canonical and all nodes are pairwise M-equivalent.  The
    closure is finite (length and letter counts are preserved); max_steps
    caps the number of nodes as a guard and must be at least 1.

    Each admitted node registers its rotations in one dict, so a valid
    site of `_sites` finds its target by one lookup of its linear result,
    and only a result of a new class is canonicalized: one `canonicalize`
    per node, none for an invalid site or one over the budget.  A node is
    expanded once, so a set of its targets per rule keeps one edge per
    (source, target, rule).
    """
    _rules(cw.alphabet.symbols)  # a ValueError unless the alphabet is ternary
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    rules = tuple(dict.fromkeys(rules))  # a repeated rule adds no edge
    for rule in rules:
        if rule not in ("CE1", "CE2"):
            raise ValueError(f"unknown rule {rule!r}; circular rules are CE1, CE2")
    rotations = {}  # every rotation of every admitted node -> that node
    order = []
    queue = deque()

    def admit(node):
        rotations.update(dict.fromkeys(conjugacy_class(node.canonical), node))
        order.append(node)
        queue.append(node)

    admit(cw)
    edges = []
    complete = True
    while queue:
        source = queue.popleft()
        for rule in rules:
            targets = set()
            for site, result in _sites(source, rule):
                if site[4] != site[5]:  # lhs != rhs
                    continue
                target = rotations.get(result)
                if target is None:
                    if len(order) >= max_steps:
                        complete = False
                        continue
                    target = canonicalize(cw.alphabet, result)
                    admit(target)
                if target.canonical not in targets:
                    targets.add(target.canonical)
                    app = RuleApplication(rule, *site, target)
                    edges.append(RewriteEdge(source, target, app))
    return RewriteGraph(tuple(order), tuple(edges), complete)


def parikh_vector_sufficiency(alphabet: Alphabet, x: str, y: str, alpha: str, beta: str) -> bool:
    """Whether x and y have equal Parikh vectors.  When they do, the swap
    [x·αβ·y·βα] -> [x·βα·y·αβ] preserves M-equivalence for any distinct
    symbols α, β of the ternary alphabet."""
    _rules(alphabet.symbols)  # a ValueError unless the alphabet is ternary
    if alpha not in alphabet or beta not in alphabet:
        raise ValueError(f"swap symbols must belong to alphabet {alphabet}")
    if alpha == beta:
        raise ValueError("swap symbols must be distinct")
    return parikh_vector(alphabet, x) == parikh_vector(alphabet, y)
