"""Self-test of the benchmark: every workload and every output check at
tiny sizes, every metric named in BENCHMARK.json emitted with its unit,
and the checks able to catch a wrong answer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from circparikh import Alphabet, avg_count, canonicalize, circular_parikh_matrix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_end_to_end_emits_every_metric(workload):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    line = last_json(done.stdout)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed1-trace0-tiny.json").read_text()
    )
    assert set(record["provenance"]) >= {
        "seed", "python", "platform", "cpu_count", "git_sha", "git_dirty"
    }


def test_tiny_traced_run_emits_every_layer_metric():
    done = bench("--workload", "rewrite", "--seed", "2", "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    line = last_json(done.stdout)
    assert line["correct"] is True and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    spans = (ROOT / ".perfbench_out" / "spans-seed2-tiny.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"workload", "name", "start", "end", "parent", "job"}
    assert {json.loads(s)["workload"] for s in spans} == set(WORKLOAD_NAMES)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "long-words", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_companion_file_matches_benchmark_json():
    companion = json.loads((ROOT / "perfbench" / "metrics.json").read_text(encoding="utf-8"))
    for kind in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in companion[kind]]
        assert ours == [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for prediction in companion["predictions"]:
        assert set(prediction["layer_metrics"]) <= layer_names


def test_oracle_agrees_with_the_package():
    abcd = Alphabet("abcd")
    for word in ("abcdabcd", "dcbaaab", "abababcd", "cab"):
        cw = canonicalize(abcd, word)
        total = oracle.rotation_sum("abcd", word)
        matrix = circular_parikh_matrix(cw)
        n = len(word)
        assert [[e * n for e in row] for row in matrix.rows] == total
        assert avg_count(cw, "bad") * n == oracle.rotation_sum("bad", word)[0][-1]


def _rotate(cw):
    return dataclasses.replace(cw, canonical=cw.canonical[1:] + cw.canonical[:1])


def _flip(app):
    return dataclasses.replace(app, condition_lhs=app.condition_lhs + 1)


def _wrong_cli(argv):
    print("PASS checked=0 failures=0 elapsed=0.00s")
    return 0


MUTATIONS = {
    "count_subword": ("long-words", lambda f: lambda *a: f(*a) + 1),
    "avg_count": ("long-words", lambda f: lambda *a: f(*a) + 1),
    "circular_parikh_matrix": ("long-words", lambda f: lambda cw: f(cw).inverse()),
    "m_equivalent": ("long-words", lambda f: lambda *a: not f(*a)),
    "canonicalize": ("long-words", lambda f: lambda *a: _rotate(f(*a))),
    "rewrite_closure": ("rewrite", lambda f: lambda cw: f(cw, max_steps=1)),
    "find_ce1": ("rewrite", lambda f: lambda cw: [_flip(a) for a in f(cw)]),
}


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_checks_catch_a_wrong_answer(target, monkeypatch):
    name, mutate = MUTATIONS[target]
    workload = workloads.WORKLOADS[name](1, True)
    monkeypatch.setattr(workloads, target, mutate(getattr(workloads, target)))
    errors = [op.check(op.run(Tracer(False)))[1] for op in workload.first_pass]
    assert any(errors)


def test_checks_catch_a_wrong_cli_output(monkeypatch):
    workload = workloads.WORKLOADS["exhaustive"](1, True)
    monkeypatch.setattr(workloads.cli, "main", _wrong_cli)
    errors = [op.check(op.run(Tracer(False)))[1] for op in workload.first_pass]
    assert all(errors)


def test_self_time_subtracts_children():
    spans = [["bench.x", 0.0, 10.0, -1, "x#0"], ["words.a", 1.0, 4.0, 0, "x#0"]]
    assert self_times(spans) == [7.0, 3.0]
    tracer = Tracer(True)
    with tracer.span("bench.r", "r#0"):
        with tracer.span("words.count_subword"):
            pass
    assert [s[3:] for s in tracer.spans] == [[-1, "r#0"], [0, "r#0"]]
