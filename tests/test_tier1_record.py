"""`tier1_record.record` reads pytest's durations and summary lines."""

from tier1_record import record

OUTPUT = """\
........s.                                                        [100%]
============================= slowest durations =============================
10.90s call     tests/test_single_pass.py::test_swap_results_match_the_search
1.30s call     tests/test_single_pass.py::test_oracle[cab]
0.50s setup    tests/test_rewriting.py::TestClosure::test_dot_output
0.25s call     perfbench/test_perfbench.py::test_tiny

(3 durations < 0.005s hidden.  Use -vv to show these durations.)
8 passed, 1 failed, 1 skipped in 14.28s (0:00:14)
"""


def test_record_sums_durations_per_file():
    assert record(OUTPUT) == {
        "tests": 8,
        "failed": 1,
        "skipped": 1,
        "wall_s": 14.28,
        "per_file_s": {
            "tests/test_single_pass.py": 12.2,
            "tests/test_rewriting.py": 0.5,
            "perfbench/test_perfbench.py": 0.25,
        },
    }
