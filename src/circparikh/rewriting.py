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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .circular import CircularWord, avg_count, canonicalize, conjugacy_class, m_equivalent
from .words import Alphabet, parikh_vector


def _require_ternary(alphabet: Alphabet) -> None:
    if alphabet.size != 3:
        raise ValueError(
            f"rewriting rules require a ternary alphabet, got size {alphabet.size}"
        )


@dataclass(frozen=True)
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
    """All words reachable from one ac <-> ca factor swap."""
    _require_ternary(alphabet)
    alphabet.validate(word)
    ((_, ac, ca),) = _factors(alphabet, "CE1")
    out = set()
    for i in range(len(word) - 1):
        pair = word[i : i + 2]
        if pair == ac:
            out.add(word[:i] + ca + word[i + 2 :])
        elif pair == ca:
            out.add(word[:i] + ac + word[i + 2 :])
    return out


def apply_e2(alphabet: Alphabet, word: str) -> set:
    """All words reachable from one x·αb·y·bα·z <-> x·bα·y·αb·z swap with
    y restricted to {α, b}."""
    _require_ternary(alphabet)
    alphabet.validate(word)
    b = alphabet.symbols[1]
    n = len(word)
    out = set()
    for alpha, head, tail in _factors(alphabet, "CE2"):
        allowed = {alpha, b}
        for i in range(n - 3):
            first = word[i : i + 2]
            if first != head and first != tail:
                continue
            for j in range(i + 2, n - 1):
                second = word[j : j + 2]
                y = word[i + 2 : j]
                if not set(y) <= allowed:
                    continue
                if first == head and second == tail:
                    out.add(word[:i] + tail + y + head + word[j + 2 :])
                elif first == tail and second == head:
                    out.add(word[:i] + head + y + tail + word[j + 2 :])
    return out


def ce1_condition(alphabet: Alphabet, x: str, y: str) -> tuple:
    """Both sides of the CE1 condition for x·ac·y·ca -> x·ca·y·ac:
    (|y|_b (|x|_a - |x|_c), |x|_b (|y|_a - |y|_c))."""
    a, b, c = alphabet.symbols
    return y.count(b) * (x.count(a) - x.count(c)), x.count(b) * (y.count(a) - y.count(c))


def ce2_condition(alphabet: Alphabet, x: str, y: str, alpha: str) -> tuple:
    """Both sides of the CE2 condition for x·αb·y·bα -> x·bα·y·αb, α in
    {a, c}: (|x|_ᾱ (|y| + |y|_b + 3), |y|_ᾱ (|x| + |x|_b + 3))."""
    a, b, c = alphabet.symbols
    if alpha not in (a, c):
        raise ValueError(f"CE2 swaps {a} or {c} with {b}, got {alpha!r}")
    bar = c if alpha == a else a
    return (
        x.count(bar) * (len(y) + y.count(b) + 3),
        y.count(bar) * (len(x) + x.count(b) + 3),
    )


def _factors(alphabet: Alphabet, rule: str) -> tuple:
    """The factor pairs x·head·y·tail -> x·tail·y·head of `rule` as (α, head,
    tail): one for CE1 (α None), one per α in {a, c} for CE2.  E1 and E2
    swap the same factors."""
    a, b, c = alphabet.symbols
    if rule == "CE1":
        return ((None, a + c, c + a),)
    return ((a, a + b, b + a), (c, c + b, b + c))


def _swaps(alphabet: Alphabet, rule: str) -> tuple:
    """The `_factors` of `rule` as (α, head, tail, condition), where
    condition(x, y) gives both sides of the side condition."""
    if rule == "CE1":
        return tuple((*f, partial(ce1_condition, alphabet)) for f in _factors(alphabet, rule))
    return tuple(
        (*f, partial(ce2_condition, alphabet, alpha=f[0])) for f in _factors(alphabet, rule)
    )


def _sites(cw: CircularWord, rule: str):
    """Every site of `rule` in [w] as ((r, |x|, |y|, α, lhs, rhs), result):
    each rotation r of the canonical word that factors as x·head·y·tail for
    one of the rule's `_swaps`, both sides of its side condition, and the
    linear word x·tail·y·head; ordered by r, then α, then |x|."""
    _require_ternary(cw.alphabet)
    swaps = _swaps(cw.alphabet, rule)
    w = cw.canonical
    n = len(w)
    doubled = w + w
    for r in range(n):
        rot = doubled[r : r + n]
        for alpha, head, tail, condition in swaps:
            if rot[-2:] != tail:
                continue
            i = rot.find(head, 0, n - 2)
            while i != -1:
                x, y = rot[:i], rot[i + 2 : n - 2]
                lhs, rhs = condition(x, y)
                yield (r, i, len(y), alpha, lhs, rhs), x + tail + y + head
                i = rot.find(head, i + 1, n - 2)


def _applications(cw: CircularWord, rule: str) -> list:
    """Every site of `rule` in [w] with its canonicalized result."""
    return [
        RuleApplication(rule, *site, canonicalize(cw.alphabet, result))
        for site, result in _sites(cw, rule)
    ]


def find_ce1(cw: CircularWord) -> list:
    """Every CE1 site of [w]: each rotation that factors as x·ac·y·ca."""
    return _applications(cw, "CE1")


def find_ce2(cw: CircularWord) -> list:
    """Every CE2 site of [w]: each rotation that factors as x·αb·y·bα
    (α in {a, c}, y arbitrary)."""
    return _applications(cw, "CE2")


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


@dataclass(frozen=True)
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

    Each admitted node registers its rotations in one dict, so a valid site
    finds its target by one lookup of its linear result, and only a result
    of a new class is canonicalized: one `canonicalize` per node, none for
    an invalid site or one over the budget.  (Listings by `find_ce1` and
    `find_ce2` canonicalize every site, since they print each result; each
    call costs a few `str` operations plus Python work per longest run of
    the least letter.)
    """
    _require_ternary(cw.alphabet)
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    rules = tuple(rules)
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
    seen_edges = set()
    complete = True
    while queue:
        source = queue.popleft()
        for rule in rules:
            for site, result in _sites(source, rule):
                lhs, rhs = site[-2:]
                if lhs != rhs:
                    continue
                target = rotations.get(result)
                if target is None:
                    if len(order) >= max_steps:
                        complete = False
                        continue
                    target = canonicalize(cw.alphabet, result)
                    admit(target)
                edge_key = (source.canonical, target.canonical, rule)
                if edge_key not in seen_edges:
                    seen_edges.add(edge_key)
                    app = RuleApplication(rule, *site, target)
                    edges.append(RewriteEdge(source, target, app))
    return RewriteGraph(tuple(order), tuple(edges), complete)


def parikh_vector_sufficiency(alphabet: Alphabet, x: str, y: str, alpha: str, beta: str) -> bool:
    """Whether x and y have equal Parikh vectors.  When they do, the swap
    [x·αβ·y·βα] -> [x·βα·y·αβ] preserves M-equivalence for any distinct
    symbols α, β of the ternary alphabet."""
    _require_ternary(alphabet)
    if alpha not in alphabet or beta not in alphabet:
        raise ValueError(f"swap symbols must belong to alphabet {alphabet}")
    if alpha == beta:
        raise ValueError("swap symbols must be distinct")
    return parikh_vector(alphabet, x) == parikh_vector(alphabet, y)
