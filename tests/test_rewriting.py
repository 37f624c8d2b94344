import itertools
import re
from collections import deque
from fractions import Fraction

import pytest

from circparikh import (
    Alphabet,
    apply_e1,
    apply_e2,
    avg_count,
    canonicalize,
    count_subword,
    enumerate_necklaces,
    find_ce1,
    find_ce2,
    m_equivalent,
    naive_rule_failure_examples,
    parikh_matrix,
    parikh_vector,
    parikh_vector_sufficiency,
    rewrite_closure,
)
from circparikh import enumeration, rewriting
from circparikh.cli import main
from circparikh.rewriting import (
    RewriteEdge,
    RewriteGraph,
    RuleApplication,
    _counts,
    _rules,
)

ABC = Alphabet("abc")
AB = Alphabet("ab")
F = Fraction


def words_up_to(symbols, max_len):
    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


class TestLinearRules:
    def test_e1_examples(self):
        assert "bcabc" in apply_e1(ABC, "bacbc")
        assert apply_e1(ABC, "abab") == set()
        assert apply_e1(ABC, "") == set()
        assert apply_e1(ABC, "ac") == {"ca"}
        assert apply_e1(ABC, "ca") == {"ac"}

    def test_e2_examples(self):
        assert apply_e2(ABC, "abba") == {"baab"}
        assert apply_e2(ABC, "abca") == set()
        assert apply_e2(ABC, "") == set()
        assert apply_e2(ABC, "cbbc") == {"bccb"}
        # y must avoid the third letter: acbba has "ab...ba" only across the c
        assert apply_e2(ABC, "abcba") == set()

    def test_rules_need_ternary(self):
        with pytest.raises(ValueError):
            apply_e1(AB, "ab")
        with pytest.raises(ValueError):
            apply_e2(AB, "ab")

    def test_rules_preserve_linear_matrix(self):
        for w in words_up_to("abc", 6):
            matrix = parikh_matrix(ABC, w)
            for w2 in apply_e1(ABC, w) | apply_e2(ABC, w):
                assert parikh_matrix(ABC, w2) == matrix

    def test_e2_reverse_direction(self):
        assert "abba" in apply_e2(ABC, "baab")


def apply_e2_oracle(alphabet, word):
    """apply_e2 by trying every pair of starts i < j and testing the letter
    set of y = word[i+2 : j] each time: the nested loop the rule used to
    run, O(n³) per word."""
    a, b, c = alphabet.symbols
    n = len(word)
    out = set()
    for alpha in (a, c):
        head, tail = alpha + b, b + alpha
        for i in range(n - 3):
            first = word[i : i + 2]
            if first != head and first != tail:
                continue
            for j in range(i + 2, n - 1):
                second = word[j : j + 2]
                y = word[i + 2 : j]
                if not set(y) <= {alpha, b}:
                    continue
                if first == head and second == tail:
                    out.add(word[:i] + tail + y + head + word[j + 2 :])
                elif first == tail and second == head:
                    out.add(word[:i] + head + y + tail + word[j + 2 :])
    return out


class TestE2AgainstOracle:
    def test_every_word_up_to_7(self):
        results = 0
        for w in words_up_to("abc", 7):
            expected = apply_e2_oracle(ABC, w)
            assert apply_e2(ABC, w) == expected, w
            results += len(expected)
        assert results > 0

    def test_random_words(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # "cab" makes c the first role letter, so roles follow the order.
        @hypothesis.given(
            st.sampled_from(["abc", "cab"]).flatmap(
                lambda s: st.tuples(st.just(s), st.text(s, max_size=40))
            )
        )
        def check(case):
            symbols, word = case
            alphabet = Alphabet(symbols)
            assert apply_e2(alphabet, word) == apply_e2_oracle(alphabet, word)

        check()


def apply_e1_oracle(alphabet, word):
    """apply_e1 by slicing every pair of adjacent letters: the loop the rule
    used to run before it found its factors with `str.find`."""
    a, _, c = alphabet.symbols
    ac, ca = a + c, c + a
    out = set()
    for i in range(len(word) - 1):
        pair = word[i : i + 2]
        if pair == ac:
            out.add(word[:i] + ca + word[i + 2 :])
        elif pair == ca:
            out.add(word[:i] + ac + word[i + 2 :])
    return out


class TestE1AgainstOracle:
    # "cab" and "bca" put the swapped letters a and c elsewhere in the order.
    @pytest.mark.parametrize("symbols", ["abc", "cab", "bca"])
    def test_every_word_up_to_9(self, symbols):
        alphabet = Alphabet(symbols)
        results = 0
        for w in words_up_to(symbols, 9):
            expected = apply_e1_oracle(alphabet, w)
            assert apply_e1(alphabet, w) == expected, w
            results += len(expected)
        assert results > 0

    @pytest.mark.parametrize(
        "word, expected",
        [
            ("aca", {"caa", "aac"}),
            ("acac", {"caac", "aacc", "acca"}),
            ("caca", {"acca", "ccaa", "caac"}),
            ("acacac", {"caacac", "aaccac", "accaac", "acaacc", "acacca"}),
        ],
        ids=["aca", "acac", "caca", "acacac"],
    )
    def test_overlapping_factors(self, word, expected):
        assert apply_e1(ABC, word) == apply_e1_oracle(ABC, word) == expected

    def test_random_words(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(
            st.sampled_from(["abc", "cab", "bca"]).flatmap(
                lambda s: st.tuples(st.just(s), st.text(s, max_size=60))
            )
        )
        def check(case):
            symbols, word = case
            alphabet = Alphabet(symbols)
            assert apply_e1(alphabet, word) == apply_e1_oracle(alphabet, word)

        check()


def test_rule_tables_compile_once_per_alphabet():
    # Neither a word of the suite nor a node of the closure nor a site of a
    # listing compiles the rule tables: each symbol order compiles them once,
    # however many `Alphabet` objects spell it.
    _rules.cache_clear()
    abc, cab = tuple("abc"), tuple("cab")

    assert enumeration.run_suite("linear-rules").checked > 1000
    graph = rewrite_closure(canonicalize(Alphabet(abc), "a" * 7 + "b" * 8))
    assert graph.complete and len(graph.nodes) > 100
    assert _rules.cache_info().misses == 1

    sites = 0
    for alphabet in (Alphabet(abc), Alphabet(cab)):
        for word in ("acbca" * 20, "cbabbcba", "abacca"):
            cw = canonicalize(alphabet, word)
            sites += len(find_ce1(cw)) + len(find_ce2(cw))
    assert sites > 1000 and _rules.cache_info().misses == 2


class TestFindCE1:
    def test_valid_example(self):
        apps = find_ce1(canonicalize(ABC, "abacca"))
        valid = [a for a in apps if a.valid]
        assert len(valid) == 1
        app = valid[0]
        assert app.condition_lhs == 0 and app.condition_rhs == 0
        assert app.result == canonicalize(ABC, "abcaac")
        assert m_equivalent(canonicalize(ABC, "abacca"), app.result)

    def test_invalid_example(self):
        apps = find_ce1(canonicalize(ABC, "bacaca"))
        assert len(apps) == 1
        app = apps[0]
        assert not app.valid
        assert (app.condition_lhs, app.condition_rhs) == (0, 1)
        assert (app.x_len, app.y_len) == (1, 1)
        assert not m_equivalent(
            canonicalize(ABC, "bacaca"), canonicalize(ABC, "bcaaac")
        )

    def test_no_sites_without_c(self):
        assert find_ce1(canonicalize(ABC, "abab")) == []
        assert find_ce1(canonicalize(ABC, "")) == []

    def test_needs_ternary(self):
        with pytest.raises(ValueError):
            find_ce1(canonicalize(AB, "ab"))


class TestFindCE2:
    def test_valid_example(self):
        source = canonicalize(ABC, "cbabbcba")
        apps = [a for a in find_ce2(source) if a.valid]
        assert apps
        # the swap site with x = cb, alpha = a, y = bc
        chosen = [a for a in apps if a.alpha == "a" and a.x_len == 2]
        assert chosen and chosen[0].condition_lhs == 6 and chosen[0].condition_rhs == 6
        target = canonicalize(ABC, "cbbabcab")
        assert chosen[0].result == target
        assert m_equivalent(source, target)
        assert source != target  # genuinely different circular words

    def test_invalid_example(self):
        source = canonicalize(ABC, "ccabcba")
        apps = find_ce2(source)
        assert len(apps) == 1
        app = apps[0]
        assert not app.valid
        assert (app.condition_lhs, app.condition_rhs) == (8, 5)
        assert not m_equivalent(source, app.result)

    def test_self_map(self):
        source = canonicalize(ABC, "abba")
        apps = [a for a in find_ce2(source) if a.valid]
        assert len(apps) == 1
        assert apps[0].result == source  # baab is a rotation of abba

    def test_needs_ternary(self):
        with pytest.raises(ValueError):
            find_ce2(canonicalize(AB, "abba"))


@pytest.mark.parametrize("finder", [find_ce1, find_ce2])
def test_listings_validate_per_call_not_per_site(monkeypatch, finder):
    # A site's result rearranges the letters of a validated word, so a
    # listing validates as often for hundreds of sites as for one.
    necklaces = [canonicalize(ABC, w) for w in ("ccabcba", "acbca" * 30)]
    validate, calls = Alphabet.validate, []
    monkeypatch.setattr(Alphabet, "validate", lambda self, w: calls.append(w) or validate(self, w))
    sites, per_call = [], []
    for cw in necklaces:
        calls.clear()
        sites.append(len(finder(cw)))
        per_call.append(len(calls))
    assert sites[0] == 1 and sites[1] >= 800
    assert per_call[0] == per_call[1] <= 1


def test_rules_listing_builds_one_certificate(monkeypatch, capsys):
    # `rules --rule both` lists the CE1 and then the CE2 sites of one word
    # from one listing certificate, not one per rule.
    built, swap_results = [], rewriting._swap_results
    monkeypatch.setattr(rewriting, "_swap_results", lambda cw: built.append(cw) or swap_results(cw))
    assert main(["rules", "--rule", "both", "abbcaaacbaca"]) == 0
    rules = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "CE1" in rules and "CE2" in rules
    assert rules == sorted(rules)
    assert [cw.canonical for cw in built] == ["aaacbacaabbc"]


def split_pairs(max_total):
    for total in range(max_total + 1):
        for x_len in range(total + 1):
            for xt in itertools.product("abc", repeat=x_len):
                for yt in itertools.product("abc", repeat=total - x_len):
                    yield "".join(xt), "".join(yt)


class TestRuleTheorems:
    def test_ce1_iff_small(self):
        for x, y in split_pairs(3):
            w = x + "ac" + y + "ca"
            w2 = x + "ca" + y + "ac"
            condition = y.count("b") * (x.count("a") - x.count("c")) == x.count(
                "b"
            ) * (y.count("a") - y.count("c"))
            assert condition == m_equivalent(
                canonicalize(ABC, w), canonicalize(ABC, w2)
            )

    def test_ce2_iff_small(self):
        for x, y in split_pairs(3):
            for alpha, bar in (("a", "c"), ("c", "a")):
                w = x + alpha + "b" + y + "b" + alpha
                w2 = x + "b" + alpha + y + alpha + "b"
                condition = x.count(bar) * (len(y) + y.count("b") + 3) == y.count(
                    bar
                ) * (len(x) + x.count("b") + 3)
                assert condition == m_equivalent(
                    canonicalize(ABC, w), canonicalize(ABC, w2)
                )

    def test_slender_counts_agree_unconditionally(self):
        # the swap never moves any slender pattern of length <= 2
        slender = ["a", "b", "c", "ab", "ac", "ba", "bc", "ca", "cb"]
        pairs = [(a, b) for a in "abc" for b in "abc" if a != b]
        for x, y in split_pairs(2):
            for alpha, beta in pairs:
                w = x + alpha + beta + y + beta + alpha
                w2 = x + beta + alpha + y + alpha + beta
                cw, cw2 = canonicalize(ABC, w), canonicalize(ABC, w2)
                for u in slender:
                    assert avg_count(cw, u) == avg_count(cw2, u)

    def test_counting_delta_for_linear_swap(self):
        # |w|_abc - |w'|_abc = |y|_bar for w = x·αb·y·bα·z, w' = x·bα·y·αb·z
        parts = list(words_up_to("abc", 2))
        for alpha, bar in (("a", "c"), ("c", "a")):
            for x in parts:
                for y in parts:
                    for z in parts:
                        w = x + alpha + "b" + y + "b" + alpha + z
                        w2 = x + "b" + alpha + y + alpha + "b" + z
                        delta = count_subword(w, "abc") - count_subword(w2, "abc")
                        assert delta == y.count(bar)

    def test_applications_are_involutive(self):
        for word in ("abacca", "cbabbcba", "aabbcc", "abcacb"):
            source = canonicalize(ABC, word)
            for finder in (find_ce1, find_ce2):
                for app in finder(source):
                    if not app.valid:
                        continue
                    back = {
                        b.result for b in finder(app.result) if b.valid
                    }
                    assert source in back

    def test_finder_verdicts_match_m_equivalence(self):
        checked = 0
        for n in range(9):
            for source in enumerate_necklaces(ABC, n):
                for app in find_ce1(source) + find_ce2(source):
                    assert app.valid == m_equivalent(source, app.result), (source, app)
                    checked += 1
        assert checked == 1689

    @pytest.mark.parametrize("symbols", ["ab", "abcd"])
    def test_conditions_need_ternary(self, symbols):
        alphabet = Alphabet(symbols)
        message = f"rewriting rules require a ternary alphabet, got size {len(symbols)}"
        with pytest.raises(ValueError, match=message):
            find_ce1(canonicalize(alphabet, "ab"))
        with pytest.raises(ValueError, match=message):
            apply_e1(alphabet, "ab")
        with pytest.raises(ValueError, match=message):
            rewrite_closure(canonicalize(alphabet, "ab"))
        with pytest.raises(ValueError, match=message):
            parikh_vector_sufficiency(alphabet, "a", "b", "a", "b")


class TestConditionsDefinedOnce:
    def test_conditions_match_the_paper_formulas(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(
            st.sampled_from(["abc", "cab"]),
            st.text("abc", max_size=12),
            st.text("abc", max_size=12),
        )
        def check(symbols, x, y):
            a, b, c = symbols
            ce1 = (
                y.count(b) * (x.count(a) - x.count(c)),
                x.count(b) * (y.count(a) - y.count(c)),
            )
            ce2 = {
                alpha: (
                    x.count(bar) * (len(y) + y.count(b) + 3),
                    y.count(bar) * (len(x) + x.count(b) + 3),
                )
                for alpha, bar in ((a, c), (c, a))
            }
            factors = _rules(tuple(symbols)).factors
            ((alpha, _, _, roles, sides),) = factors["CE1"]
            assert alpha is None and sides(_counts(x, roles), _counts(y, roles)) == ce1
            assert [alpha for alpha, *_ in factors["CE2"]] == [a, c]
            for alpha, _, _, roles, sides in factors["CE2"]:
                assert sides(_counts(x, roles), _counts(y, roles)) == ce2[alpha]

        check()


class TestNaiveFailures:
    def test_report(self):
        e1, e2 = naive_rule_failure_examples()
        assert e1.rule == "E1" and e2.rule == "E2"
        assert (e1.left_count, e1.right_count) == (F(1, 3), F(2, 3))
        assert not e1.equivalent
        assert (e2.left_count, e2.right_count) == (F(2, 5), F(1))
        assert not e2.equivalent
        # reflexivity control
        cw = canonicalize(AB, "abab")
        assert m_equivalent(cw, cw)


class TestClosure:
    def test_isolated_word(self):
        graph = rewrite_closure(canonicalize(ABC, "aaaacbbc"))
        assert [n.canonical for n in graph.nodes] == ["aaaacbbc"]
        assert graph.edges == ()
        assert graph.complete

    def test_reachable_pair(self):
        graph = rewrite_closure(canonicalize(ABC, "abacca"))
        assert canonicalize(ABC, "abcaac") in graph.nodes
        assert len(graph.nodes) == 2

    def test_single_node_without_sites(self):
        graph = rewrite_closure(canonicalize(ABC, "abab"))
        assert len(graph.nodes) == 1 and graph.edges == ()

    def test_all_nodes_m_equivalent(self):
        for word in ("abacca", "cbabbcba", "aabcbc"):
            graph = rewrite_closure(canonicalize(ABC, word))
            first = graph.nodes[0]
            for node in graph.nodes[1:]:
                assert m_equivalent(first, node)
            for edge in graph.edges:
                assert m_equivalent(edge.source, edge.target)

    def test_node_budget(self):
        graph = rewrite_closure(canonicalize(ABC, "abacca"), max_steps=1)
        assert len(graph.nodes) == 1
        assert not graph.complete

    @pytest.mark.parametrize("steps", [0, -5])
    def test_node_budget_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="max_steps"):
            rewrite_closure(canonicalize(ABC, "abacca"), max_steps=steps)

    def test_truncated_dot_names_only_declared_nodes(self):
        graph = rewrite_closure(canonicalize(ABC, "aaaabbbbb"), max_steps=3)
        assert not graph.complete and len(graph.nodes) == 3
        dot = graph.to_dot()
        declared = set(re.findall(r'^  "(\w+)" \[', dot, re.M))
        endpoints = re.findall(r'^  "(\w+)" -- "(\w+)"', dot, re.M)
        assert declared == {node.canonical for node in graph.nodes}
        assert len(endpoints) == len(graph.edges) > 0
        assert {name for pair in endpoints for name in pair} <= declared

    def test_rule_filter_and_unknown_rule(self):
        graph = rewrite_closure(canonicalize(ABC, "abacca"), rules=("CE2",))
        assert len(graph.nodes) == 1  # the only move is a CE1 move
        with pytest.raises(ValueError):
            rewrite_closure(canonicalize(ABC, "abacca"), rules=("E1",))

    def test_dot_output(self):
        graph = rewrite_closure(canonicalize(ABC, "abacca"))
        dot = graph.to_dot()
        assert dot.startswith("graph rewrites {")
        assert '"aabacc" [label="[aabacc]"];' in dot
        assert "CE1@r=" in dot and "|x|=" in dot
        ce2_graph = rewrite_closure(canonicalize(ABC, "cbabbcba"))
        assert "CE2@r=" in ce2_graph.to_dot()
        assert "α=" in ce2_graph.to_dot()


def sites_oracle(cw, rule):
    """Every site of `rule` by slicing each rotation at every i, with the
    swaps and both sides of the side condition spelled from the paper's
    formulas and each result canonicalized: the site scan the closure used
    to run, sharing no table with the package."""
    a, b, c = cw.alphabet.symbols
    swaps = {"CE1": [(None, a + c, c + a)], "CE2": [(a, a + b, b + a), (c, c + b, b + c)]}[rule]
    w = cw.canonical
    n = len(w)
    apps = []
    for r in range(n):
        rot = (w + w)[r : r + n]
        for alpha, head, tail in swaps:
            if rot[-2:] != tail:
                continue
            for i in range(n - 3):
                if rot[i : i + 2] != head:
                    continue
                x, y = rot[:i], rot[i + 2 : n - 2]
                if alpha is None:
                    lhs = y.count(b) * (x.count(a) - x.count(c))
                    rhs = x.count(b) * (y.count(a) - y.count(c))
                else:
                    bar = c if alpha == a else a
                    lhs = x.count(bar) * (len(y) + y.count(b) + 3)
                    rhs = y.count(bar) * (len(x) + x.count(b) + 3)
                result = canonicalize(cw.alphabet, x + tail + y + head)
                apps.append(RuleApplication(rule, r, i, len(y), alpha, lhs, rhs, result))
    return apps


def closure_oracle(cw, rules=("CE1", "CE2"), max_steps=100000):
    """The breadth-first closure that canonicalizes the result of every
    site and drops the invalid ones afterwards."""
    nodes = {cw.canonical: cw}
    order, edges, seen_edges = [cw], [], set()
    complete = True
    queue = deque([cw])
    while queue:
        source = queue.popleft()
        for rule in rules:
            for app in sites_oracle(source, rule):
                if not app.valid:
                    continue
                target = app.result
                if target.canonical not in nodes:
                    if len(nodes) >= max_steps:
                        complete = False
                        continue
                    nodes[target.canonical] = target
                    order.append(target)
                    queue.append(target)
                edge_key = (source.canonical, target.canonical, rule)
                if edge_key not in seen_edges:
                    seen_edges.add(edge_key)
                    edges.append(RewriteEdge(source, target, app))
    return RewriteGraph(tuple(order), tuple(edges), complete)


def ternary_necklaces(max_n):
    return [cw for n in range(max_n + 1) for cw in enumerate_necklaces(ABC, n)]


class TestClosureAgainstOracle:
    def test_listings_match_oracle(self):
        for cw in ternary_necklaces(9):
            assert find_ce1(cw) == sites_oracle(cw, "CE1"), cw
            assert find_ce2(cw) == sites_oracle(cw, "CE2"), cw

    @pytest.mark.parametrize("rules", [("CE1", "CE2"), ("CE1",), ("CE2",)])
    def test_every_necklace_up_to_9(self, rules):
        # Graph equality compares the nodes in order, each edge's source,
        # target and full RuleApplication, and `complete`.
        edges = truncated = 0
        for cw in ternary_necklaces(9):
            full = closure_oracle(cw, rules)
            assert rewrite_closure(cw, rules) == full, cw
            half = max(1, len(full.nodes) // 2)
            graph = rewrite_closure(cw, rules, max_steps=half)
            assert graph == closure_oracle(cw, rules, max_steps=half), (cw, half)
            edges += len(full.edges)
            truncated += not graph.complete
        assert edges > 0 and truncated > 0

    def test_listings_match_oracle_on_long_words(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(
            st.sampled_from(["ab", "ac", "bc", "abc"]).flatmap(lambda s: st.text(s, max_size=64))
        )
        def check(word):
            cw = canonicalize(ABC, word)
            assert find_ce1(cw) == sites_oracle(cw, "CE1")
            assert find_ce2(cw) == sites_oracle(cw, "CE2")

        check()

    def test_listings_match_oracle_on_powers(self):
        # A periodic word is still scanned at all n rotations: rotation r
        # and r + |period| are the same linear word and list the same sites.
        listed = 0
        for u in words_up_to("abc", 5):
            for k in range(1, 5):
                cw = canonicalize(ABC, u * k)
                p = len(cw.period)
                for rule, finder in (("CE1", find_ce1), ("CE2", find_ce2)):
                    apps = finder(cw)
                    assert apps == sites_oracle(cw, rule), (u, k)
                    first = [a for a in apps if a.rotation < p]
                    assert len(apps) == len(first) * (len(cw.canonical) // max(p, 1))
                    listed += len(apps)
        assert listed > 0

    def test_repeated_rule_adds_no_edge(self):
        for word in ("abacca", "cbabbcba", "aabcbc"):
            cw = canonicalize(ABC, word)
            for rules in (("CE1", "CE1"), ("CE2", "CE1", "CE2")):
                graph = rewrite_closure(cw, rules)
                assert graph == closure_oracle(cw, rules)
                assert graph == rewrite_closure(cw, tuple(dict.fromkeys(rules)))

    def test_random_words(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(
            st.sampled_from(["ab", "abc"]).flatmap(lambda s: st.text(s, max_size=13)),
            st.sampled_from([("CE1", "CE2"), ("CE1",), ("CE2",), ("CE2", "CE1")]),
            st.integers(1, 40),
        )
        def check(word, rules, max_steps):
            cw = canonicalize(ABC, word)
            assert rewrite_closure(cw, rules) == closure_oracle(cw, rules)
            graph = rewrite_closure(cw, rules, max_steps=max_steps)
            assert graph == closure_oracle(cw, rules, max_steps=max_steps)

        check()

    @pytest.fixture
    def canonicalized(self, monkeypatch):
        """The words `rewriting` passes to `canonicalize`, in call order."""
        calls = []

        def spy(alphabet, text):
            calls.append(text)
            return canonicalize(alphabet, text)

        monkeypatch.setattr(rewriting, "canonicalize", spy)
        return calls

    # abababab and aabbaabb are periodic and lie in their own closures.
    @pytest.mark.parametrize("word", ["aaaabbbbb", "abbcaaacbaca", "abababab", "aabbaabb"])
    def test_one_canonicalize_per_new_node(self, canonicalized, word):
        cw = canonicalize(ABC, word)
        graph = rewrite_closure(cw)
        assert graph.nodes == closure_oracle(cw).nodes
        assert graph.complete and len(canonicalized) == len(graph.nodes) - 1
        canonicalized.clear()
        graph = rewrite_closure(cw, max_steps=1)
        assert canonicalized == [] and graph.nodes == (cw,)

    def test_budget_rejected_targets_are_not_canonicalized(self, canonicalized):
        graph = rewrite_closure(canonicalize(ABC, "aaaabbbbb"), max_steps=3)
        assert not graph.complete
        assert [canonicalize(ABC, text) for text in canonicalized] == list(graph.nodes[1:])


class TestParikhVectorSufficiency:
    def test_examples(self):
        assert parikh_vector_sufficiency(ABC, "ab", "ba", "a", "c")
        assert m_equivalent(
            canonicalize(ABC, "ab" + "ac" + "ba" + "ca"),
            canonicalize(ABC, "ab" + "ca" + "ba" + "ac"),
        )
        assert parikh_vector_sufficiency(ABC, "", "", "a", "b")
        assert not parikh_vector_sufficiency(ABC, "a", "b", "a", "c")

    def test_validation(self):
        with pytest.raises(ValueError):
            parikh_vector_sufficiency(ABC, "a", "a", "a", "a")
        with pytest.raises(ValueError):
            parikh_vector_sufficiency(ABC, "a", "a", "a", "d")
        with pytest.raises(ValueError):
            parikh_vector_sufficiency(AB, "a", "a", "a", "b")

    def test_equal_vectors_imply_m_equivalence(self):
        pairs = [(a, b) for a in "abc" for b in "abc" if a != b]
        words = list(words_up_to("abc", 2))
        for x in words:
            for y in words:
                if parikh_vector(ABC, x) != parikh_vector(ABC, y):
                    continue
                for alpha, beta in pairs:
                    assert parikh_vector_sufficiency(ABC, x, y, alpha, beta)
                    w = x + alpha + beta + y + beta + alpha
                    w2 = x + beta + alpha + y + alpha + beta
                    assert m_equivalent(
                        canonicalize(ABC, w), canonicalize(ABC, w2)
                    )
