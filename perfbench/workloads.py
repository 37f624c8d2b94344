"""The three benchmark workloads, their inputs and their output checks.

Each workload is a fixed list of request slots; one pass issues every
slot once, in order, from a single caller in a closed loop.  The seed
picks only letters and words, so the work in a pass does not depend on
it.  Every op returns its result to the caller, which times it; the
check afterwards (outside the timing) turns the result into the text
that feeds the output digest and reports a wrong answer as an error.

Runs only with the ``circparikh`` package importable (from ``src``).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import statistics
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from circparikh import (
    Alphabet,
    SUITE_NAMES,
    SuiteLimits,
    UnitriangularMatrix,
    avg_count,
    canonicalize,
    circular_parikh_matrix,
    count_subword,
    direct_count,
    enumerate_necklaces,
    find_ce1,
    find_ce2,
    m_equivalent,
    parikh_matrix,
    partition_by_matrix,
    rewrite_closure,
    run_suite,
    search_negative_minor,
)
from circparikh import cli

import oracle

@dataclass
class Op:
    """One request slot of a pass.  `run(tracer)` does the timed work and
    returns its result; `check(result)` returns (digest text, error or None).
    `group` is the request class the slot belongs to, by expected latency.
    A traced run keeps `summary(result)` (default: the result) for the
    workload's probes and layer metrics."""

    slot: int
    kind: str
    group: str
    run: Callable
    check: Callable
    summary: Callable = lambda result: result


def _rotations(word: str) -> set:
    return {word[i:] + word[:i] for i in range(len(word))}


def _least_rotation_ok(cw, word: str) -> str | None:
    if cw.canonical != min(_rotations(word)):
        return f"canonicalize({word[:20]}...) is not the least rotation"
    return None


def _matrix_error(matrix, total, n) -> str | None:
    """Compare a package matrix with oracle integer sums divided by n."""
    d = len(total)
    if matrix.dim != d or any(
        matrix.rows[i][j] != Fraction(total[i][j], n) for i in range(d) for j in range(d)
    ):
        return f"matrix differs from the oracle: {matrix.key()}"
    return None


def _format(matrix) -> str:
    return matrix.pretty() + "\n" + matrix.to_json()


# --------------------------------------------------------------------------
# long-words


class LongWords:
    """Library calls on long random words, one fresh word per request.

    Slot mix: 78 light linear requests (65 %) and 42 heavy circular ones,
    24 of them at the largest length.  The median therefore lies inside
    the light class and the 90th percentile inside the largest heavy
    group, never on a class boundary.
    """

    name = "long-words"
    compare_untraced = True
    LIGHT = ("count_subword", "direct_count", "parikh_matrix")

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        sizes = (12, 16, 20) if tiny else (128, 256, 512)
        self.slots = self._slots(sizes)
        self.alphabets = {s: Alphabet(s) for s in ("abc", "abcd")}
        self.first_pass = self.make_pass()

    @staticmethod
    def _slots(sizes):
        small, mid, big = sizes
        slots = []
        for syms in ("abc", "abcd"):
            for n in sizes:
                for m in range(3, 8):
                    slots.append(("count_subword", syms, n, m))
                    slots.append(("direct_count", syms, n, m))
                slots.extend([("parikh_matrix", syms, n, 0)] * 3)
        for syms in ("abc", "abcd"):
            slots.extend(("avg_count", syms, big, m) for m in range(3, 8))
            slots.extend([("circular_parikh_matrix", syms, big, 0)] * 3)
        slots.extend(("m_equivalent", "abc", big, eq) for eq in (True, False) * 4)
        for n in (small, mid):
            for syms in ("abc", "abcd"):
                slots.extend(("avg_count", syms, n, m) for m in (3, 7))
                slots.append(("circular_parikh_matrix", syms, n, 0))
            slots.extend(("m_equivalent", "abc", n, eq) for eq in (True, False, True))
        return _interleaved(slots)

    def _word(self, syms, n):
        return "".join(self.rng.choice(syms) for _ in range(n))

    def make_pass(self) -> list:
        ops = []
        for slot, (kind, syms, n, arg) in enumerate(self.slots):
            alphabet = self.alphabets[syms]
            if kind == "m_equivalent":
                op = self._m_equivalent(alphabet, n, arg)
            else:
                word = self._word(syms, n)
                pattern = self._word(syms, arg)
                op = getattr(self, "_" + kind)(alphabet, word, pattern)
            group = "light" if kind in self.LIGHT else f"heavy-{n}"
            ops.append(Op(slot, kind, group, *op))
        return ops

    @staticmethod
    def _count_subword(alphabet, word, pattern):
        def run(tr):
            with tr.span("words.count_subword"):
                return count_subword(word, pattern, alphabet)

        def check(count):
            ok = count == oracle.count(word, pattern)
            return str(count), None if ok else f"count_subword {count} is wrong"

        return run, check

    @staticmethod
    def _direct_count(alphabet, word, pattern):
        def run(tr):
            with tr.span("circular.canonicalize"):
                cw = canonicalize(alphabet, word)
            with tr.span("circular.direct_count"):
                return cw, direct_count(cw, pattern)

        def check(result):
            cw, count = result
            expected = sum(oracle.count(cw.canonical, u) for u in _rotations(pattern))
            error = _least_rotation_ok(cw, word)
            if error is None and count != expected:
                error = f"direct_count {count} != {expected}"
            return str(count), error

        return run, check

    @staticmethod
    def _parikh_matrix(alphabet, word, _pattern):
        def run(tr):
            with tr.span("words.parikh_matrix"):
                matrix = parikh_matrix(alphabet, word)
            with tr.span("matrices.format"):
                return matrix, _format(matrix)

        def check(result):
            matrix, text = result
            expected = oracle.parikh_rows("".join(alphabet.symbols), word)
            return text, _matrix_error(matrix, expected, 1)

        return run, check

    @staticmethod
    def _avg_count(alphabet, word, pattern):
        def run(tr):
            with tr.span("circular.canonicalize"):
                cw = canonicalize(alphabet, word)
            with tr.span("circular.avg_count"):
                return avg_count(cw, pattern)

        def check(value):
            expected = Fraction(oracle.rotation_sum(pattern, word)[0][-1], len(word))
            return str(value), None if value == expected else f"avg_count {value} != {expected}"

        return run, check

    @staticmethod
    def _circular_parikh_matrix(alphabet, word, _pattern):
        def run(tr):
            with tr.span("circular.canonicalize"):
                cw = canonicalize(alphabet, word)
            with tr.span("circular.circular_parikh_matrix"):
                matrix = circular_parikh_matrix(cw)
            with tr.span("matrices.format"):
                return cw, matrix, _format(matrix)

        def check(result):
            cw, matrix, text = result
            total = oracle.rotation_sum("".join(alphabet.symbols), word)
            error = _least_rotation_ok(cw, word) or _matrix_error(matrix, total, len(word))
            return f"{cw}\n{text}", error

        return run, check

    def _m_equivalent(self, alphabet, n, equivalent):
        """x·ac·y·ca against x·ca·y·ac.  With y a shuffle of x the pair is
        M-equivalent (Parikh-vector sufficiency); otherwise x and y are
        drawn until the CE1 condition fails, so the pair is not, although
        both words have the same Parikh vector."""
        a, b, c = alphabet.symbols
        half = (n - 4) // 2
        while True:
            x = self._word(alphabet.symbols, half)
            if equivalent:
                letters = list(x)
                self.rng.shuffle(letters)
                y = "".join(letters)
                break
            y = self._word(alphabet.symbols, half)
            if y.count(b) * (x.count(a) - x.count(c)) != x.count(b) * (y.count(a) - y.count(c)):
                break
        left, right = x + a + c + y + c + a, x + c + a + y + a + c

        def run(tr):
            with tr.span("circular.canonicalize"):
                cw1 = canonicalize(alphabet, left)
                cw2 = canonicalize(alphabet, right)
            with tr.span("circular.m_equivalent"):
                return m_equivalent(cw1, cw2)

        def check(verdict):
            ok = verdict is equivalent
            return str(verdict), None if ok else f"m_equivalent gave {verdict}"

        return run, check

    def workload_metrics(self, kinds, samples) -> dict:
        return {}

    def trace_probes(self, done) -> list:
        return []

    def layer_metrics(self, spans, done) -> dict:
        def us(name):
            return statistics.median(_durations(spans, name)) * 1e6

        return {
            "words.count_subword_us": us("words.count_subword"),
            "words.parikh_matrix_us": us("words.parikh_matrix"),
            "circular.canonicalize_us": us("circular.canonicalize"),
            "circular.direct_count_us": us("circular.direct_count"),
            "circular.avg_count_ms": us("circular.avg_count") / 1e3,
            "circular.circular_parikh_matrix_ms": us("circular.circular_parikh_matrix") / 1e3,
            "circular.m_equivalent_ms": us("circular.m_equivalent") / 1e3,
        }


def _interleaved(slots) -> list:
    """The slots in one fixed shuffled order, the same for every seed, so
    that each request class is spread over the whole pass and a burst of
    load on the host does not fall on one class only."""
    slots = list(slots)
    random.Random("slot order").shuffle(slots)
    return slots


def _durations(spans, name, job_prefix=""):
    return [
        end - start
        for span_name, start, end, _, job in spans
        if span_name == name and job.startswith(job_prefix)
    ]


def _cli_op(argv):
    def run(tr):
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _necklace_count(size: int, n: int) -> int:
    """Burnside count of length-n necklaces over `size` symbols."""
    if n == 0:
        return 1
    return sum(_phi(d) * size ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


# --------------------------------------------------------------------------
# exhaustive


class Exhaustive:
    """The heavy README CLI commands, in process through `cli.main(argv)`:
    all eleven `verify` suites at their default bounds, `classes` and
    `search-minor`.  The seed picks only the symbols of σ and their order;
    the bounds are the README defaults (tiny mode shrinks them)."""

    name = "exhaustive"
    # Thirteen spans in a pass of about fifteen seconds: the tracing
    # overhead is far below the noise, so the traced run does not repeat
    # the pass untraced to measure it.
    compare_untraced = False
    # checked= counts of every suite at this commit, default and tiny bounds.
    CHECKED = {
        False: {
            "binary-closed-form": 8191,
            "power": 5876,
            "inverse-alternate": 1469,
            "product-identity": 11821,
            "slender-partition": 1469,
            "ce1-iff": 2005,
            "ce2-iff": 4010,
            "linear-rules": 18372,
            "naive-failures": 6,
            "binary-mequiv": 802,
            "distinct-count": 13,
        },
        True: {
            "binary-closed-form": 31,
            "power": 122,
            "inverse-alternate": 61,
            "product-identity": 213,
            "slender-partition": 61,
            "ce1-iff": 34,
            "ce2-iff": 68,
            "linear-rules": 72,
            "naive-failures": 6,
            "binary-mequiv": 16,
            "distinct-count": 5,
        },
    }
    CLASSES = {False: 3706, True: 44}
    MINORS_PER_MATRIX = 69  # square minors of a 4x4 matrix: sum of C(4,k)^2

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"{self.name}:{seed}")
        self.alphabet = Alphabet(rng.sample(string.ascii_lowercase, 3))
        self.tiny = tiny
        self.limits = SuiteLimits(max_length=4, max_power=2, max_split=2) if tiny else SuiteLimits()
        bounds = ["--max-length", "4", "--max-power", "2", "--max-split", "2"] if tiny else []
        self.classes_length = 5 if tiny else 10
        self.minor_length = 4 if tiny else 9
        self.matrix_length = 4 if tiny else 8
        sigma = str(self.alphabet)
        self.jobs = [(f"verify.{s}", ["verify", "--suite", s, *bounds]) for s in SUITE_NAMES]
        self.jobs.append(("classes", ["classes", "-a", sigma, "--length", str(self.classes_length)]))
        self.jobs.append(
            ("search-minor", ["search-minor", "-a", sigma, "--max-length", str(self.minor_length)])
        )
        self.first_pass = self.make_pass()

    def make_pass(self) -> list:
        return [
            Op(slot, kind, kind, _cli_op(argv), self._checker(kind))
            for slot, (kind, argv) in enumerate(self.jobs)
        ]

    def _checker(self, kind):
        def check(result):
            code, out = result
            text = re.sub(r" elapsed=\S+", "", out)
            if code != 0:
                return text, f"{kind} exited {code}"
            if kind.startswith("verify."):
                expected = self.CHECKED[self.tiny][kind[len("verify."):]]
                if not re.search(rf"^PASS checked={expected} failures=0 ", out, re.M):
                    return text, f"{kind} did not PASS with checked={expected}"
            elif kind == "classes":
                if f" classes={self.CLASSES[self.tiny]} " not in out.splitlines()[0]:
                    return text, f"classes did not report {self.CLASSES[self.tiny]} classes"
            elif out != "none found\n":
                return text, "search-minor found a negative minor"
            return text, None

        return check

    def workload_metrics(self, kinds, samples) -> dict:
        medians = {kind: statistics.median(s) for kind, s in zip(kinds, samples)}
        verify = [k for k in kinds if k.startswith("verify.")]
        return {
            "verify_s": (sum(medians[k] for k in verify), "s", len(samples[0])),
            "classes_s": (medians["classes"], "s", len(samples[0])),
            "minor_search_s": (medians["search-minor"], "s", len(samples[0])),
        }

    def trace_probes(self, done) -> list:
        """Direct replays of the library call behind each CLI command, the
        necklace enumeration, and matrix operations on the circular matrices
        of every necklace of σ up to length 8."""
        alphabet = self.alphabet
        probes = []

        def probe(kind, run, check):
            probes.append(Op(len(done) + len(probes), kind, kind, run, check))

        for name in SUITE_NAMES:
            expected = self.CHECKED[self.tiny][name]

            def run(tr, name=name):
                with tr.span("enumeration.run_suite"):
                    return run_suite(name, self.limits)

            def check(result, expected=expected):
                ok = result.passed and result.checked == expected
                return "", None if ok else f"run_suite({result.name}) gave {result.checked}"

            probe(f"replay.verify.{name}", run, check)

        def run_partition(tr):
            with tr.span("enumeration.partition_by_matrix"):
                return partition_by_matrix(alphabet, self.classes_length)

        def check_partition(report):
            ok = report.class_count == self.CLASSES[self.tiny]
            return "", None if ok else f"partition_by_matrix gave {report.class_count}"

        probe("replay.classes", run_partition, check_partition)

        def run_minor(tr):
            with tr.span("enumeration.search_negative_minor"):
                return search_negative_minor(alphabet, self.minor_length)

        probe("replay.search-minor", run_minor, lambda w: ("", None if w is None else f"{w}"))

        def run_enumerate(tr):
            with tr.span("enumeration.enumerate_necklaces"):
                return enumerate_necklaces(alphabet, self.classes_length)

        def check_enumerate(necklaces):
            expected = _necklace_count(3, self.classes_length)
            ok = len(necklaces) == expected
            return "", None if ok else f"{len(necklaces)} necklaces, expected {expected}"

        probe("enumerate", run_enumerate, check_enumerate)
        probe("matrices", self._matrix_probe, self._check_matrix_probe)
        return probes

    def _matrix_probe(self, tr):
        ladder = "".join(self.alphabet.symbols)
        out = []
        for n in range(1, self.matrix_length + 1):
            with tr.span("enumeration.enumerate_necklaces"):
                necklaces = enumerate_necklaces(self.alphabet, n)
            for cw in necklaces:
                rows = oracle.parikh_rows(ladder, cw.canonical)
                with tr.span("matrices.construct"):
                    linear = UnitriangularMatrix(rows)
                with tr.span("circular.circular_parikh_matrix"):
                    matrix = circular_parikh_matrix(cw)
                powers = []
                for p in (2, 3, 4):
                    with tr.span("matrices.pow"):
                        powers.append(matrix**p)
                with tr.span("matrices.inverse"):
                    inverse = matrix.inverse()
                with tr.span("matrices.key"):
                    key = matrix.key()
                with tr.span("matrices.format"):
                    text = _format(matrix)
                out.append((cw, rows, linear, matrix, powers, inverse, key, text))
        return out

    @staticmethod
    def _check_matrix_probe(out):
        for cw, rows, linear, matrix, powers, inverse, key, text in out:
            d = matrix.dim
            identity = UnitriangularMatrix.identity(d)
            upper = ",".join(str(matrix.rows[i][j]) for i in range(d) for j in range(i + 1, d))
            if (
                [list(r) for r in linear.rows] != rows
                or powers[0] != matrix * matrix
                or powers[2] != powers[0] * powers[0]
                or matrix * inverse != identity
                or key != upper
                or UnitriangularMatrix.from_json(text.splitlines()[-1]) != matrix
            ):
                return "", f"matrix operations disagree on {cw}"
        return "", None

    def layer_metrics(self, spans, done) -> dict:
        def seconds(name, job):
            return statistics.median(_durations(spans, name, job))

        metrics = {}
        cli_self = 0.0
        replayed = {
            "classes": "enumeration.partition_by_matrix",
            "search-minor": "enumeration.search_negative_minor",
        }
        for kind, _ in self.jobs:
            main = seconds("cli.main", f"{kind}#")
            replay = seconds(replayed.get(kind, "enumeration.run_suite"), f"replay.{kind}#")
            cli_self += main - replay
            metrics[f"cli.main_s.{kind}"] = main
        metrics["cli.self_ms"] = cli_self * 1e3
        for op, result in done:
            if op.kind.startswith("replay.verify."):
                suite = op.kind[len("replay.verify."):]
                metrics[f"enumeration.run_suite_s.{suite}"] = seconds(
                    "enumeration.run_suite", f"{op.kind}#"
                )
                metrics[f"enumeration.run_suite_checked.{suite}"] = result.checked
        enumerate_s = seconds("enumeration.enumerate_necklaces", "enumerate#")
        minor_s = seconds("enumeration.search_negative_minor", "replay.")
        computed_minors = self.MINORS_PER_MATRIX * sum(
            _necklace_count(3, n) for n in range(self.minor_length + 1)
        )
        metrics.update(
            {
                "enumeration.enumerate_necklaces_s": enumerate_s,
                "enumeration.necklaces_per_s": _necklace_count(3, self.classes_length)
                / enumerate_s,
                "enumeration.partition_by_matrix_s": seconds(
                    "enumeration.partition_by_matrix", "replay."
                ),
                "enumeration.search_negative_minor_s": minor_s,
                "enumeration.minors_per_s": computed_minors / minor_s,
            }
        )
        for name in ("construct", "pow", "inverse", "key", "format"):
            metrics[f"matrices.{name}_us"] = seconds(f"matrices.{name}", "matrices#") * 1e6
        return metrics


# --------------------------------------------------------------------------
# rewrite


class Rewrite:
    """CE1/CE2 rewriting on ternary words: closures (with their DOT graph)
    of random two-letter words with coprime letter counts, whose closure is
    the whole content class, and `rules`-style CE1+CE2 site listings of
    random three-letter words.

    Slot mix: 36 listings, 3 small closures and 9 large ones; the median
    lies among the listings and the 90th percentile among the large
    closures.
    """

    name = "rewrite"
    compare_untraced = True
    PAIRS = ("ab", "bc", "ac")
    # Edge counts of a whole content class, recorded at this commit.
    EDGES = {(7, 8): 5544, (8, 9): 24024, (2, 3): 2, (3, 4): 12}

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.alphabet = Alphabet("abc")
        small, big = ((2, 3), (3, 4)) if tiny else ((7, 8), (8, 9))
        low, span = (12, 8) if tiny else (128, 64)
        self.slots = [("rules", low + span * i // 35) for i in range(36)]
        self.slots += [("closure", (pair, small)) for pair in self.PAIRS]
        self.slots += [("closure", (pair, big)) for pair in self.PAIRS * 3]
        self.slots = _interleaved(self.slots)
        self.first_pass = self.make_pass()

    def make_pass(self) -> list:
        ops = []
        for slot, (kind, arg) in enumerate(self.slots):
            if kind == "rules":
                word = "".join(self.rng.choice("abc") for _ in range(arg))
                ops.append(Op(slot, kind, kind, *self._rules(word), _site_counts))
            else:
                pair, counts = arg
                if self.rng.random() < 0.5:
                    pair = pair[::-1]
                letters = list(pair[0] * counts[0] + pair[1] * counts[1])
                self.rng.shuffle(letters)
                group = f"closure-{sum(counts)}"
                op = Op(slot, kind, group, *self._closure("".join(letters), counts), _graph_size)
                ops.append(op)
        return ops

    def _rules(self, word):
        alphabet = self.alphabet

        def run(tr):
            with tr.span("circular.canonicalize"):
                cw = canonicalize(alphabet, word)
            with tr.span("rewriting.find_ce1"):
                ce1 = find_ce1(cw)
            with tr.span("rewriting.find_ce2"):
                ce2 = find_ce2(cw)
            return cw, ce1 + ce2

        def check(result):
            cw, apps = result
            lines = [_format_application(app) for app in apps]
            content = sorted(cw.canonical)
            source = oracle.rotation_sum("abc", cw.canonical)
            invalid_checked = 0
            for app in apps:
                if sorted(app.result.canonical) != content:
                    return "\n".join(lines), f"{app.rule} changed the letters of {cw}"
                if not app.valid:
                    if invalid_checked == 5:
                        continue
                    invalid_checked += 1
                # The CE1/CE2 theorems: the matrix is preserved iff the condition holds.
                if (oracle.rotation_sum("abc", app.result.canonical) == source) != app.valid:
                    return "\n".join(lines), f"{app.rule} verdict wrong at {cw}"
            return "\n".join(lines), None

        return run, check

    def _closure(self, word, counts):
        alphabet = self.alphabet
        n = sum(counts)
        nodes = math.comb(n, counts[0]) // n
        edges = self.EDGES[counts]

        def run(tr):
            with tr.span("circular.canonicalize"):
                cw = canonicalize(alphabet, word)
            with tr.span("rewriting.rewrite_closure"):
                graph = rewrite_closure(cw)
            with tr.span("rewriting.to_dot"):
                return graph, graph.to_dot()

        def check(result):
            graph, dot = result
            content = sorted(word)
            if not graph.complete or len(graph.nodes) != nodes or len(graph.edges) != edges:
                error = f"closure of [{word}]: {len(graph.nodes)} nodes, {len(graph.edges)} edges"
            elif any(sorted(node.canonical) != content for node in graph.nodes):
                error = f"closure of [{word}] changed letter content"
            else:
                error = None
            return dot, error

        return run, check

    def workload_metrics(self, kinds, samples) -> dict:
        closure_nodes = closure_s = 0.0
        rules = []
        for (kind, arg), times in zip(self.slots, samples):
            if kind == "closure":
                n = sum(arg[1])
                closure_nodes += math.comb(n, arg[1][0]) // n * len(times)
                closure_s += sum(times)
            else:
                rules.append(statistics.median(times))
        return {
            "closure_nodes_per_s": (closure_nodes / closure_s, "1/s", len(samples[-1])),
            "rules_p50_ms": (statistics.median(rules) * 1e3, "ms", len(rules) * len(samples[0])),
        }

    def trace_probes(self, done) -> list:
        """Call the public finders on every node of each traced closure and
        count the valid applications, the work a closure examines."""
        closures = [nodes for op, (nodes, _) in done if op.kind == "closure"]

        def run(tr):
            admitted = examined = 0
            for nodes in closures:
                admitted += len(nodes) - 1
                for node in nodes:
                    with tr.span("rewriting.find_ce1"):
                        ce1 = find_ce1(node)
                    with tr.span("rewriting.find_ce2"):
                        ce2 = find_ce2(node)
                    examined += sum(app.valid for app in ce1 + ce2)
            return admitted, examined

        def check(result):
            return "", None if result[1] else "no valid applications in the closures"

        return [Op(len(done), "yield", "yield", run, check)]

    def layer_metrics(self, spans, done) -> dict:
        def ms(name, job):
            return statistics.median(_durations(spans, name, job)) * 1e3

        sites = [result for op, result in done if op.kind == "rules"]
        closures = [result for op, result in done if op.kind == "closure"]
        admitted, examined = next(result for op, result in done if op.kind == "yield")
        return {
            "rewriting.find_ce1_ms": ms("rewriting.find_ce1", "rules#"),
            "rewriting.find_ce2_ms": ms("rewriting.find_ce2", "rules#"),
            "rewriting.rewrite_closure_s": ms("rewriting.rewrite_closure", "closure#") / 1e3,
            "rewriting.to_dot_ms": ms("rewriting.to_dot", "closure#"),
            "rewriting.sites": sum(total for total, _ in sites),
            "rewriting.valid_share": sum(valid for _, valid in sites)
            / sum(total for total, _ in sites),
            "rewriting.closure_nodes": sum(len(nodes) for nodes, _ in closures),
            "rewriting.closure_edges": sum(edges for _, edges in closures),
            "rewriting.closure_yield": admitted / examined,
        }


def _site_counts(result):
    _, apps = result
    return len(apps), sum(app.valid for app in apps)


def _graph_size(result):
    graph, _ = result
    return graph.nodes, len(graph.edges)


def _format_application(app) -> str:
    alpha = f" α={app.alpha}" if app.alpha is not None else ""
    verdict = "valid" if app.valid else "invalid"
    return (
        f"{app.rule} rotation={app.rotation} |x|={app.x_len} |y|={app.y_len}{alpha} "
        f"condition {app.condition_lhs}={app.condition_rhs} {verdict} -> {app.result}"
    )


WORKLOADS = {w.name: w for w in (LongWords, Exhaustive, Rewrite)}
