import csv
import io
import json
import tracemalloc

import pytest

from circparikh import (
    Alphabet,
    SUITE_NAMES,
    SuiteLimits,
    canonicalize,
    circular_parikh_matrix,
    enumerate_necklaces,
    m_equivalent,
    necklace_count,
    partition_by_matrix,
    rewrite_closure,
    run_suite,
    search_negative_minor,
)
from circparikh import enumeration

ABC = Alphabet("abc")
AB = Alphabet("ab")


class TestEnumerateNecklaces:
    def test_binary_length_four(self):
        assert [c.canonical for c in enumerate_necklaces(AB, 4)] == [
            "aaaa",
            "aaab",
            "aabb",
            "abab",
            "abbb",
            "bbbb",
        ]

    def test_length_zero(self):
        necklaces = enumerate_necklaces(ABC, 0)
        assert len(necklaces) == 1 and necklaces[0].canonical == ""

    def test_ternary_length_three(self):
        assert len(enumerate_necklaces(ABC, 3)) == 11

    def test_counts_match_formula(self):
        for n in range(9):
            assert len(enumerate_necklaces(AB, n)) == necklace_count(2, n)
        for n in range(7):
            assert len(enumerate_necklaces(ABC, n)) == necklace_count(3, n)

    def test_sorted_and_canonical(self):
        necklaces = enumerate_necklaces(ABC, 4)
        words = [c.canonical for c in necklaces]
        assert words == sorted(words)
        for cw in necklaces:
            assert cw == canonicalize(ABC, cw.canonical)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            enumerate_necklaces(AB, -1)

    def test_necklace_count_rejects_negative_arguments(self):
        for size, n in ((3, -3), (-2, 3), (0, -1), (-1, 0)):
            with pytest.raises(ValueError):
                necklace_count(size, n)
        assert [necklace_count(0, n) for n in range(4)] == [1, 0, 0, 0]


class TestPartition:
    def test_binary_length_four(self):
        report = partition_by_matrix(AB, 4)
        assert report.class_count == 5
        assert report.largest_class == 2
        assert report.singleton_count == 4
        assert ("aabb", "abab") in {tuple(v) for v in report.classes.values()}

    def test_binary_class_count_is_length_plus_one(self):
        for n in range(9):
            assert partition_by_matrix(AB, n).class_count == n + 1

    def test_classes_are_sound_and_separating(self):
        report = partition_by_matrix(ABC, 5)
        reps = []
        for members in report.classes.values():
            classes = [canonicalize(ABC, w) for w in members]
            for other in classes[1:]:
                assert m_equivalent(classes[0], other)
            reps.append(classes[0])
        for i, left in enumerate(reps):
            for right in reps[i + 1 :]:
                assert not m_equivalent(left, right)

    def test_closure_stays_inside_class(self):
        report = partition_by_matrix(ABC, 6)
        cw = canonicalize(ABC, "abacca")
        key = circular_parikh_matrix(cw).key()
        members = set(report.classes[key])
        graph = rewrite_closure(cw)
        assert {node.canonical for node in graph.nodes} <= members

    def test_json_output(self):
        report = partition_by_matrix(AB, 4)
        data = json.loads(report.to_json())
        assert data["class_count"] == 5
        assert data["length"] == 4
        assert data["alphabet"] == "a,b"
        assert data["classes"]["2,2,2"] == ["aabb", "abab"]
        # serialization is deterministic
        assert report.to_json() == partition_by_matrix(AB, 4).to_json()

    def test_csv_output(self):
        report = partition_by_matrix(AB, 4)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["word", "class_size", "matrix_key"]
        assert ["[abab]", "2", "2,2,2"] in rows
        assert ["[aabb]", "4", "2,2,2"] in rows
        assert len(rows) == 7  # header + 6 necklaces


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_every_suite_passes_at_reduced_limits(self):
        limits = SuiteLimits(max_length=5, max_power=2, max_split=2)
        for name in SUITE_NAMES:
            result = run_suite(name, limits)
            assert result.passed, f"{name}: {result.failures}"
            assert result.checked > 0
            assert result.failures == ()
            assert type(result.elapsed_us) is int and result.elapsed_us >= 0

    @pytest.mark.parametrize(
        "limits",
        [
            SuiteLimits(max_length=-1),
            SuiteLimits(max_split=-1),
            SuiteLimits(max_power=0),
            SuiteLimits(failure_cap=-1),
        ],
    )
    def test_rejects_bounds_that_check_nothing(self, limits):
        with pytest.raises(ValueError):
            run_suite("power", limits)

    def test_naive_failures_suite(self):
        result = run_suite("naive-failures")
        assert result.passed and result.checked == 6

    def test_failures_past_the_cap_are_counted_not_kept(self, monkeypatch):
        def cases(alphabet, max_length):
            return (f"case {i} fails" for i in range(200_000))

        stand_in = enumeration._Suite("every case fails", (AB,), {"max_length": 0}, cases)
        monkeypatch.setitem(enumeration._SUITES, "stand-in", stand_in)
        tracemalloc.start()
        try:
            result = run_suite("stand-in", SuiteLimits(failure_cap=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.failures == ("case 0 fails", "case 1 fails", "case 2 fails")
        assert (result.checked, result.failure_count) == (200_000, 200_000)
        assert peak < 1_000_000
        assert len(run_suite("stand-in", SuiteLimits(failure_cap=None)).failures) == 200_000

    def test_results_are_reproducible(self):
        limits = SuiteLimits(max_length=6)
        first = run_suite("binary-closed-form", limits)
        second = run_suite("binary-closed-form", limits)
        assert (first.checked, first.failures, first.failure_count) == (
            second.checked,
            second.failures,
            second.failure_count,
        )


class TestMinorSearch:
    def test_binary_has_no_negative_minor(self):
        assert search_negative_minor(AB, 10) is None

    def test_deterministic(self):
        first = search_negative_minor(ABC, 6)
        second = search_negative_minor(ABC, 6)
        assert first == second

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            search_negative_minor(ABC, -1)

    def test_unary_alphabet(self):
        # matrices are ((1, n), (0, 1)); all minors are counts or 1
        assert search_negative_minor(Alphabet("a"), 8) is None
