import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from circparikh import UnitriangularMatrix
from circparikh.cli import main
from circparikh.enumeration import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_direct(self, capsys):
        code, out, _ = run(capsys, "count", "-a", "a,b,c", "--mode", "direct", "[cabacb]", "abc")
        assert (code, out.strip()) == (0, "4")

    def test_average(self, capsys):
        code, out, _ = run(capsys, "count", "-a", "a,b,c", "--mode", "average", "[abcabc]", "ab")
        assert (code, out.strip()) == (0, "7/3")

    def test_linear(self, capsys):
        code, out, _ = run(capsys, "count", "-a", "a,b,c", "--mode", "linear", "bcbcc", "bc")
        assert (code, out.strip()) == (0, "5")

    def test_average_is_default_mode(self, capsys):
        code, out, _ = run(capsys, "count", "acb", "ab")
        assert (code, out.strip()) == (0, "1/3")

    def test_bare_word_accepted_in_circular_modes(self, capsys):
        code, out, _ = run(capsys, "count", "--mode", "direct", "cabacb", "abc")
        assert (code, out.strip()) == (0, "4")

    def test_linear_rejects_brackets(self, capsys):
        code, _, err = run(capsys, "count", "--mode", "linear", "[ab]", "a")
        assert code == 64 and "linear" in err

    def test_foreign_symbol_named(self, capsys):
        code, _, err = run(capsys, "count", "-a", "a,b", "xab", "a")
        assert code == 64 and "'x'" in err

    def test_default_alphabet_is_abc(self, capsys):
        code, _, err = run(capsys, "count", "abd", "a")
        assert code == 64 and "'d'" in err


class TestMatrix:
    def test_circular_grid(self, capsys):
        code, out, _ = run(capsys, "matrix", "-a", "a,b,c", "--circular", "cabacb")
        assert code == 0
        assert out.splitlines()[0].split() == ["1", "2", "2", "4/3"]

    def test_linear_grid(self, capsys):
        code, out, _ = run(capsys, "matrix", "-a", "a,b,c", "bacbc")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["1", "1", "1", "1"],
            ["0", "1", "2", "3"],
            ["0", "0", "1", "2"],
            ["0", "0", "0", "1"],
        ]

    def test_empty_word_is_identity(self, capsys):
        code, out, _ = run(capsys, "matrix", "-a", "a,b", "")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ]

    def test_bracketed_word_implies_circular(self, capsys):
        code, out, _ = run(capsys, "matrix", "-a", "a,b,c", "[cabacb]")
        assert code == 0 and "4/3" in out

    def test_json_round_trip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "matrix", "--format", "json", "--circular", "cabacb")
        assert code == 0
        text = out.strip()
        assert UnitriangularMatrix.from_json(text).to_json() == text
        data = json.loads(text)
        assert data["dim"] == 4

    def test_invalid_word(self, capsys):
        code, _, err = run(capsys, "matrix", "-a", "a,b", "abz")
        assert code == 64 and "'z'" in err


class TestMequiv:
    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "mequiv", "-a", "a,b", "abab", "bbaa")
        assert (code, out.strip()) == (0, "EQUIVALENT")

    def test_not_equivalent_reports_entry(self, capsys):
        code, out, _ = run(capsys, "mequiv", "acb", "cab")
        assert code == 1
        assert "entry (1,3): 1/3 vs 2/3" in out

    def test_reflexive(self, capsys):
        code, out, _ = run(capsys, "mequiv", "cabacb", "cabacb")
        assert (code, out.strip()) == (0, "EQUIVALENT")

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "mequiv", "ab!", "ab")
        assert code == 64 and "'!'" in err


class TestRules:
    def test_lists_valid_application(self, capsys):
        code, out, _ = run(capsys, "rules", "-a", "a,b,c", "abacca")
        assert code == 0
        lines = [line for line in out.splitlines() if "valid" in line]
        assert any("CE1" in line and "-> [aacabc]" in line and " valid" in line
                   for line in lines)

    def test_closure_single_node(self, capsys):
        code, out, _ = run(capsys, "rules", "-a", "a,b,c", "aaaacbbc", "--closure")
        assert code == 0
        assert out.count('[label="[') == 1
        assert '"aaaacbbc"' in out

    def test_no_applications(self, capsys):
        code, out, _ = run(capsys, "rules", "-a", "a,b,c", "abab")
        assert (code, out.strip()) == (0, "no applications")

    def test_non_ternary_alphabet(self, capsys):
        code, _, err = run(capsys, "rules", "-a", "a,b", "abab")
        assert code == 64 and "ternary" in err

    def test_dot_file(self, capsys, tmp_path):
        path = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "rules", "abacca", "--closure", "--dot", str(path))
        assert code == 0 and "nodes=2" in out
        dot = path.read_text()
        assert dot.startswith("graph rewrites {") and "CE1@r=" in dot

    def test_unwritable_dot_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "graph.dot"
        code, out, err = run(capsys, "rules", "abacca", "--closure", "--dot", str(path))
        assert code == 64 and out == ""
        assert err.startswith("circparikh: error: cannot write") and str(path) in err

    def test_rule_filter(self, capsys):
        code, out, _ = run(capsys, "rules", "--rule", "CE2", "abacca")
        assert (code, out.strip()) == (0, "no applications")

    # Symbols that DOT must escape, in node names and in CE2's α label.
    @pytest.mark.parametrize(
        "alphabet, word, edges",
        [('a,",c', 'a"ac"a', 0), ('a,",c', 'a"acca', 2), ('",b,\\', '\\b"bb\\b"', 2)],
    )
    def test_closure_dot_is_well_formed(self, capsys, alphabet, word, edges):
        code, out, _ = run(capsys, "rules", "-a", alphabet, "--closure", word)
        quoted = r'"(?:[^"\\]|\\.)*"'
        node = re.compile(rf"  ({quoted}) \[label={quoted}\];")
        edge = re.compile(rf"  ({quoted}) -- ({quoted}) \[label={quoted}\];")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "graph rewrites {" and lines[-1] == "}"
        nodes = [m[1] for m in map(node.fullmatch, lines[1:-1]) if m]
        ends = [m.groups() for m in map(edge.fullmatch, lines[1:-1]) if m]
        assert len(nodes) + len(ends) == len(lines) - 2 and len(ends) == edges
        assert {end for pair in ends for end in pair} <= set(nodes)


class TestClasses:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "classes", "-a", "a,b", "--length", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["class_count"] == 5
        assert data["classes"]["2,2,2"] == ["aabb", "abab"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "classes", "-a", "a,b", "--length", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word,class_size,matrix_key"
        assert len(lines) == 7
        assert '[abab],2,"2,2,2"' in lines

    def test_text(self, capsys):
        code, out, _ = run(capsys, "classes", "-a", "a,b", "--length", "4")
        assert code == 0
        assert "classes=5" in out
        assert "[aabb] [abab]" in out

    def test_length_cap(self, capsys):
        code, _, err = run(capsys, "classes", "-a", "a,b,c", "--length", "13")
        assert code == 64 and "12" in err

    def test_alphabet_cap(self, capsys):
        code, _, err = run(capsys, "classes", "-a", "a,b,c,d,e", "--length", "2")
        assert code == 64


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "distinct-count", "--max-length", "6")
        assert code == 0
        assert "PASS" in out and "failures=0" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 64 and "unknown suite" in err

    def test_unknown_suite_is_named_before_its_bounds(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "bogus", "--max-length", "13")
        assert code == 64 and out == ""
        assert err.startswith("circparikh: error: unknown suite 'bogus'; known suites: ")

    def test_naive_failures(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "naive-failures")
        assert code == 0 and "PASS" in out

    def test_failure_exits_2(self, capsys, monkeypatch):
        from circparikh import SuiteResult
        import circparikh.cli as cli

        def broken(name, limits):
            return SuiteResult(name, 3, ("w=abc: witness",), 1, 0.0)

        monkeypatch.setattr(cli, "run_suite", broken)
        code, out, _ = run(capsys, "verify", "--suite", "power")
        assert code == 2
        assert "FAIL" in out and "w=abc: witness" in out

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("power", "--max-length", "-1"),
            ("power", "--max-power", "0"),
            ("ce1-iff", "--max-split", "-1"),
            ("distinct-count", "--max-length", "-3"),
            ("naive-failures", "--failure-cap", "-1"),
        ],
    )
    def test_bound_that_checks_nothing_is_usage_error(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert code == 64 and out == ""
        assert flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize(
        "suite, flag, value, cap",
        [
            ("binary-closed-form", "--max-length", "17", "16"),
            ("power", "--max-length", "13", "12"),
            ("ce2-iff", "--max-split", "9", "8"),
            ("power", "--max-power", "17", "16"),
        ],
    )
    def test_bound_over_cap_is_usage_error(self, capsys, suite, flag, value, cap):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert code == 64 and out == ""
        assert flag[2:].replace("-", "_") in err and cap in err

    @pytest.mark.parametrize("length", ["0", "1"])
    def test_bound_under_which_the_suite_checks_no_case_is_usage_error(self, capsys, length):
        # No word shorter than 2 has an E1/E2 rewrite.
        code, out, err = run(capsys, "verify", "--suite", "linear-rules", "--max-length", length)
        assert (code, out) == (64, "")
        assert err == f"circparikh: error: suite linear-rules checks no case at max_length={length}\n"

    def test_bounds_at_caps_are_accepted(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "naive-failures",
            "--max-length", "12", "--max-split", "8", "--max-power", "16",
        )
        assert code == 0 and "PASS" in out


class TestRulesClosureBudget:
    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_non_positive_budget_is_usage_error(self, capsys, steps):
        code, out, err = run(capsys, "rules", "--closure", "--max-steps", steps, "abacca")
        assert code == 64 and out == "" and "max_steps" in err

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_non_positive_budget_is_usage_error_without_closure(self, capsys, steps):
        code, out, err = run(capsys, "rules", "--max-steps", steps, "abacca")
        assert code == 64 and out == ""
        assert err == f"circparikh: error: max_steps must be at least 1, got {steps}\n"

    def test_dot_without_closure_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, out, err = run(capsys, "rules", "--dot", str(path), "abacca")
        assert code == 64 and out == "" and "--closure" in err
        assert not path.exists()


class TestSearchMinor:
    def test_binary_none_found(self, capsys):
        code, out, _ = run(capsys, "search-minor", "-a", "a,b", "--max-length", "8")
        assert (code, out.strip()) == (0, "none found")

    def test_negative_length_is_usage_error(self, capsys):
        code, out, err = run(capsys, "search-minor", "--max-length", "-1")
        assert code == 64 and out == "" and "length" in err

    def test_readme_example(self, capsys):
        code, out, _ = run(capsys, "search-minor", "-a", "a,b,c", "--max-length", "10")
        assert (code, out.strip()) == (0, "none found")

    @pytest.mark.parametrize(
        "alphabet, length, cap",
        [("a,b,c", "13", "12"), ("a,b,c,d", "9", "8"), ("a,b", "17", "16"), ("a,b,c,d,e", "2", "4")],
    )
    def test_length_cap(self, capsys, alphabet, length, cap):
        code, out, err = run(capsys, "search-minor", "-a", alphabet, "--max-length", length)
        assert code == 64 and out == "" and cap in err


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, err = run(capsys, )
        assert code == 64

    def test_bad_flag(self, capsys):
        code, _, err = run(capsys, "count", "--mode", "sideways", "ab", "a")
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "-a", "", "", ""),
            ("matrix", "-a", "", ""),
            ("mequiv", "-a", "", "", ""),
            ("rules", "-a", "", ""),
            ("classes", "-a", "", "--length", "2"),
            ("search-minor", "-a", "", "--max-length", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_alphabet_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err == "circparikh: error: alphabet must not be empty\n"


def test_python_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "circparikh", "count", "-a", "a,b,c", "--mode", "average"]
    proc = subprocess.run(
        [*argv, "[abcabc]", "ab"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7/3\n", "")
    proc = subprocess.run(
        [*argv, "[abcabc]", "ax"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert proc.returncode == 64 and "'x'" in proc.stderr


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # The (7,8) closure prints a DOT of about 380 kB, more than a pipe holds,
    # so the writer is still writing when the reader goes away.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "circparikh", "rules", "--closure", "aaaaaaabbbbbbbb"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path
    ) as proc:
        assert proc.stdout.readline() == b"graph rewrites {\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and err == ""


def test_every_command_line_keeps_the_exit_contract(tmp_path):
    """Generated command lines over every command, its flags and tokens no
    command takes exit 0, 1, 2 or 64, with no traceback, and every 64 says
    why.  Words have at most 5 letters, lengths at most 5 and splits and
    powers at most 3; any other bound is negative, not a number or above
    every cap, and is refused before any work.  `--dot` paths lie inside
    `tmp_path`."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def line(*groups):
        return st.tuples(*groups).map(lambda parts: [token for part in parts for token in part])

    def opt(name, values):
        return st.just([]) | values.map(lambda value: [name, value])

    def small(most):
        return st.integers(0, most).map(str)

    above_caps_or_negative = st.integers(17, 10**6) | st.integers(-(10**6), -1)
    refused = above_caps_or_negative.map(str) | st.sampled_from(["x", ""])

    def bound(most):
        return small(most) | refused

    def fixed(*tokens):
        return st.just(list(tokens))

    word = st.text("abcd[]x", max_size=5).map(lambda w: [w])
    specs = ["a,b,c", "a,b", "c,a,b", "a", "a,b,c,d", "", "a,a", "ab,c", "a,b,c,d,e"]
    alphabet = opt("-a", st.sampled_from(specs))
    dot = st.sampled_from([tmp_path / "g.dot", tmp_path / "missing" / "g.dot"]).map(str)

    def verify(bounds):
        return line(
            fixed("verify"),
            opt("--suite", st.sampled_from([*SUITE_NAMES, "nope"])),
            *(
                bounds(most).map(lambda value, flag=flag: [flag, value])
                for flag, most in (("--max-length", 5), ("--max-split", 3), ("--max-power", 3))
            ),
            opt("--failure-cap", st.integers(-2, 3).map(str)),
        )

    commands = st.one_of(
        line(
            fixed("count"),
            alphabet,
            opt("--mode", st.sampled_from(["linear", "direct", "average", "x"])),
            word,
            word,
        ),
        line(
            fixed("matrix"),
            alphabet,
            fixed() | fixed("--circular"),
            opt("--format", st.sampled_from(["text", "json", "csv"])),
            word,
        ),
        line(fixed("mequiv"), alphabet, word, word),
        line(
            fixed("rules"),
            alphabet,
            opt("--rule", st.sampled_from(["CE1", "CE2", "both", "CE3"])),
            fixed() | fixed("--closure"),
            opt("--dot", dot),
            opt("--max-steps", st.integers(-2, 50).map(str)),
            word,
        ),
        line(
            fixed("classes"),
            alphabet,
            opt("--length", bound(5)),
            opt("--format", st.sampled_from(["text", "json", "csv", "x"])),
        ),
        verify(small),
        verify(bound),
        line(fixed("search-minor"), alphabet, opt("--max-length", bound(5))),
    )
    junk = st.lists(st.sampled_from(["--bogus", "-x", "extra", "nope"]), max_size=1)

    @hypothesis.given(line(commands, junk) | junk)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 64), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 64:
            assert re.fullmatch(r"circparikh: error: \S.*\n", err.getvalue(), re.S), argv

    check()
