"""The single-pass paths against brute-force oracles.

`canonicalize` finds the least rotation from the longest runs of the least
letter, and `CircularWord.period` is its `primitive_root`, where the word
recurs in its square; the oracle tries every rotation and takes the period
from the number of distinct rotations.  `primitive_root` and `conjugacy_class`
are checked against their divisor-loop and seen-set definitions, and the
rotations of the slender representatives against the permutations.  One
scanner lists the CE1 and CE2 sites; the oracle splits every rotation into
x·head·y·tail and evaluates the side conditions as the paper states them.
A listing reads most sites' results from w's origin: every site is checked
against the least rotation by brute force, and against the search it skips.
"""

import itertools
import random

import pytest

from circparikh import (
    Alphabet,
    RuleApplication,
    canonicalize,
    circular,
    conjugacy_class,
    enumerate_necklaces,
    find_ce1,
    find_ce2,
    primitive_root,
    rewriting,
    words,
)
from circparikh.words import _table

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Alphabets whose order is not code-point order come first.
SPECS = ["c,a,b", "b,a", "a,b,c", "a,b"]


def least_rotation_oracle(alphabet, word):
    alphabet.validate(word)
    ranks = [alphabet.index(ch) for ch in word]
    r = min(range(len(word)), key=lambda r: ranks[r:] + ranks[:r], default=0)
    canonical = word[r:] + word[:r]
    return canonical, canonical[: len({word[i:] + word[:i] for i in range(len(word))})]


def duval_oracle(alphabet, word):
    """The least rotation and period by one pass of Duval's Lyndon
    factorization over the ranks of w·w: linear time in Python, for words
    too long for the all-rotations oracle."""
    ranks = [alphabet.index(ch) for ch in word]
    n = len(ranks)
    doubled = ranks + ranks
    start = period = i = 0
    while i < n:
        start, k, j = i, i, i + 1
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        period = j - k
        while i <= k:
            i += period
    canonical = word[start:] + word[:start]
    return canonical, canonical[:period]


def assert_matches_oracle(alphabet, word):
    cw = canonicalize(alphabet, word)
    assert (cw.canonical, cw.period) == least_rotation_oracle(alphabet, word), word


@pytest.mark.parametrize("spec", ["a", "b,a", "c,a,b", "a,b", "a,b,c"])
def test_canonicalize_matches_oracle_exhaustively(spec):
    alphabet = Alphabet.parse(spec)
    for n in range(11):
        for letters in itertools.product(alphabet.symbols, repeat=n):
            assert_matches_oracle(alphabet, "".join(letters))


def test_canonicalize_matches_oracle_exhaustively_over_four_letters():
    alphabet = Alphabet.parse("a,b,c,d")
    for n in range(8):
        for letters in itertools.product(alphabet.symbols, repeat=n):
            assert_matches_oracle(alphabet, "".join(letters))


@st.composite
def rotated_powers(draw):
    """An alphabet in a drawn order and a rotation of a power u^k over it."""
    order = draw(st.permutations("abcd"))
    symbols = "".join(order[: draw(st.integers(1, 4))])
    root = draw(st.text(alphabet=symbols, min_size=1, max_size=8))
    word = root * draw(st.integers(1, 6))
    shift = draw(st.integers(0, len(word) - 1))
    return symbols, word[shift:] + word[:shift]


@hypothesis.settings(max_examples=400)
@hypothesis.given(rotated_powers())
def test_canonicalize_on_rotated_powers(case):
    symbols, word = case
    assert_matches_oracle(Alphabet(symbols), word)


def divisor_root(word):
    """The shortest prefix v with word = v^k, trying each divisor of |word|."""
    n = len(word)
    return next((word[:d] for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word), "")


def seen_set_class(word):
    """The distinct cyclic shifts, in shift order, each kept the first time seen."""
    members = []
    for i in range(max(len(word), 1)):
        if word[i:] + word[:i] not in members:
            members.append(word[i:] + word[:i])
    return members


def assert_period_matches_definitions(word):
    assert primitive_root(word) == divisor_root(word), word
    assert conjugacy_class(word) == seen_set_class(word), word


@pytest.mark.parametrize("symbols, max_n", [("ab", 12), ("abc", 8)])
def test_period_matches_definitions_exhaustively(symbols, max_n):
    for n in range(max_n + 1):
        for letters in itertools.product(symbols, repeat=n):
            assert_period_matches_definitions("".join(letters))


@hypothesis.settings(max_examples=400)
@hypothesis.given(rotated_powers())
def test_period_on_rotated_powers(case):
    _, word = case
    assert_period_matches_definitions(word)


@pytest.mark.parametrize("symbols", ["a", "ba", "cab", "abcd"])
def test_slender_representatives_hit_each_rotation_class_once(monkeypatch, symbols):
    # The rotations of the representatives are counted from one table, and
    # they are the s! permutations, each once: so each rotation class once.
    tables = []

    def recording(patterns, max_len):
        tables.append(list(patterns))
        return _table(patterns, max_len)

    monkeypatch.setattr(words, "_table", recording)
    circular.slender_partition_check(canonicalize(Alphabet(symbols), symbols))
    assert len(tables) == 1
    assert sorted(tables[0]) == sorted(map("".join, itertools.permutations(symbols)))


@st.composite
def low_entropy_words(draw):
    """A word of length up to 400 over an alphabet in a drawn order, its
    letters drawn with skewed weights, so long runs and repeats abound."""
    symbols = draw(st.sampled_from(SPECS)).split(",")
    weights = draw(st.lists(st.integers(1, 12), min_size=len(symbols), max_size=len(symbols)))
    pool = [s for s, weight in zip(symbols, weights) for _ in range(weight)]
    n = draw(st.integers(0, 400))
    word = "".join(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return ",".join(symbols), word


@hypothesis.given(low_entropy_words())
def test_canonicalize_on_low_entropy_words(case):
    spec, word = case
    assert_matches_oracle(Alphabet.parse(spec), word)


def fibonacci_prefix(x, y, n):
    shorter, longer = x, x + y
    while len(longer) < n:
        shorter, longer = longer, longer + shorter
    return longer[:n]


@st.composite
def near_periodic_words(draw):
    """A rotation of x^k·y, (xy)^k·y or a Fibonacci prefix over x, y, with
    up to three letters overwritten: many candidate starts that tie long."""
    spec = draw(st.sampled_from(SPECS))
    symbols = spec.split(",")
    x, y = draw(st.permutations(symbols))[:2]
    k = draw(st.integers(1, 150))
    word = draw(
        st.sampled_from([x * k + y, (x + y) * k + y, fibonacci_prefix(x, y, k + 1)])
    )
    letters = list(word)
    for index, symbol in draw(
        st.lists(st.tuples(st.integers(0, len(word) - 1), st.sampled_from(symbols)), max_size=3)
    ):
        letters[index] = symbol
    shift = draw(st.integers(0, len(word) - 1))
    word = "".join(letters)
    return spec, word[shift:] + word[:shift]


@hypothesis.given(near_periodic_words())
def test_canonicalize_on_near_periodic_words(case):
    spec, word = case
    assert_matches_oracle(Alphabet.parse(spec), word)


@pytest.mark.parametrize("spec", ["a,b", "c,a,b"])
def test_duval_oracle_matches_oracle(spec):
    alphabet = Alphabet.parse(spec)
    for n in range(9):
        for letters in itertools.product(alphabet.symbols, repeat=n):
            word = "".join(letters)
            assert duval_oracle(alphabet, word) == least_rotation_oracle(alphabet, word), word


def site_oracle(alphabet, word, canonical=least_rotation_oracle):
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
                    result = canonical(alphabet, x + tail + y + head)
                    sites.append((rule, r, len(x), len(y), alpha, lhs, rhs, result))
    return sites


def listing(cw):
    return [
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


@pytest.mark.parametrize("spec", ["a,b,c", "b,c,a"])
def test_ce_scanner_matches_site_oracle(spec):
    alphabet = Alphabet.parse(spec)
    seen_alphas = set()
    for n in range(9):
        for cw in enumerate_necklaces(alphabet, n):
            listed = listing(cw)
            assert listed == site_oracle(alphabet, cw.canonical), cw
            seen_alphas.update(site[4] for site in listed)
    a, _, c = alphabet.symbols
    assert seen_alphas == {None, a, c}


@pytest.mark.parametrize("spec", ["a,b,c", "c,a,b"])
def test_long_listings_match_site_oracle(spec):
    """Listings of random words of length 128-192, every result checked
    against Duval's factorization, the kernel listings used before."""
    alphabet = Alphabet.parse(spec)
    rng = random.Random(spec)
    sites = 0
    for _ in range(4):
        word = "".join(rng.choices(alphabet.symbols, k=rng.randint(128, 192)))
        cw = canonicalize(alphabet, word)
        listed = listing(cw)
        assert listed == site_oracle(alphabet, cw.canonical, duval_oracle), word
        sites += len(listed)
    assert sites > 0


@pytest.fixture
def searched(monkeypatch):
    """The results that listings send to the least-rotation search."""
    words_searched = []
    search = circular._canonical
    monkeypatch.setattr(
        circular, "_canonical", lambda alphabet, word: words_searched.append(word) or search(alphabet, word)
    )
    return words_searched


def site_paths(cw, oracle, searched):
    """Every site's result from `_swap_results` checked against `oracle`'s
    least rotation; the numbers of sites read from w's origin and searched."""
    origin = searches = 0
    for rule in ("CE1", "CE2"):
        canonical = circular._swap_results(cw)
        for site, result in rewriting._sites(cw, rule):
            before = len(searched)
            got = canonical(site[0], site[1], result)
            assert (got.canonical, got.period) == oracle(cw.alphabet, result), (cw, rule, site)
            if len(searched) == before:
                origin += 1
            else:
                searches += 1
    return origin, searches


@pytest.mark.parametrize("symbols", ["abc", "cab"])
def test_swap_results_match_oracle_exhaustively(searched, symbols):
    alphabet = Alphabet(symbols)
    origin = searches = 0
    for n in range(11):
        for cw in enumerate_necklaces(alphabet, n):
            o, s = site_paths(cw, least_rotation_oracle, searched)
            origin, searches = origin + o, searches + s
    assert origin > 0 and searches > 0
    assert origin + searches > 21000


@pytest.mark.parametrize("symbols", ["abc", "cab"])
def test_swap_results_take_both_paths_on_long_words(searched, symbols):
    """Random words of length 128-192, where most sites take the origin."""
    alphabet = Alphabet(symbols)
    rng = random.Random(symbols)
    origin = searches = 0
    for _ in range(6):
        cw = canonicalize(alphabet, "".join(rng.choices(symbols, k=rng.randint(128, 192))))
        o, s = site_paths(cw, duval_oracle, searched)
        origin, searches = origin + o, searches + s
    assert searches > 0 and origin > 3 * searches


@pytest.mark.parametrize(
    "word, rule, rotation, canonical",
    [
        # Two swapped a's meet in y = aaa: a run as long as w's a^5.
        ("aaaaacabaaabac", "CE2", 13, "aaaaabcaaaaacb"),
        # Two swapped a's meet around y = aa: a^4, where w's longest run is a^2.
        ("aacabbbac", "CE1", 4, "aaaacbbbc"),
    ],
)
def test_swaps_that_make_a_run_at_least_as_long_as_the_leading_one(word, rule, rotation, canonical):
    cw = canonicalize(Alphabet("abc"), word)
    finder = find_ce1 if rule == "CE1" else find_ce2
    (app,) = [app for app in finder(cw) if app.rotation == rotation]
    assert app.result.canonical == canonical
    assert app.result.canonical == least_rotation_oracle(cw.alphabet, canonical)[0]


@st.composite
def ternary_words(draw):
    """A word of 20-300 letters shaped by the low-entropy, near-periodic or
    rotated-power strategy, its letters mapped onto two or three letters of
    a ternary alphabet in a drawn order."""
    spec, word = draw(st.one_of(low_entropy_words(), near_periodic_words(), rotated_powers()))
    order = "".join(draw(st.permutations("abc")))
    content = draw(st.sampled_from([order, order[:2], order[1:], order[::2]]))
    symbols = spec.replace(",", "")
    word = word.translate({ord(s): content[i % len(content)] for i, s in enumerate(symbols)})
    hypothesis.assume(word)
    return order, (word * -(-20 // len(word)))[:300]


def search_records(cw, rule):
    """The records of a listing with every site's result searched."""
    return [
        RuleApplication(rule, *site, circular._canonical(cw.alphabet, result))
        for site, result in rewriting._sites(cw, rule)
    ]


@hypothesis.given(ternary_words())
def test_swap_results_match_the_search(case):
    order, word = case
    cw = canonicalize(Alphabet(order), word)
    assert find_ce1(cw) == search_records(cw, "CE1")
    assert find_ce2(cw) == search_records(cw, "CE2")
