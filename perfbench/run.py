"""circparikh benchmark: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout (stdlib only; the package is imported
from ``src``):

    python3 perfbench/run.py --workload long-words --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload in turn
    python3 perfbench/run.py --workload all --trace 1     # the traced run

With ``--trace 0`` each workload is set up nine times in fresh processes
(``setup_s`` is the median) and then measured in one more fresh process,
untraced, for ``--seconds``; times are scaled to a nominal host speed
measured next to them (see reference.py), and the raw times are printed
beside them.  ``--trace 1`` runs one traced pass of every workload, each
in its own fresh process, whatever ``--workload`` names, because every
per-layer metric is measured on the workload that exercises its layer.
It reports every per-layer metric, the layers' self times and the tracing
overhead (the same pass run untraced first), and writes the spans to
``.perfbench_out/``.  Processes run one at a time.

Every output is checked (see workloads.py).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; a
failed check makes the exit code 1.  A result file with the provenance
of the run goes to ``.perfbench_out/``.  ``--tiny`` shrinks every input
for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("long-words", "exhaustive", "rewrite")
LAYERS = ("words", "matrices", "circular", "rewriting", "enumeration", "cli")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
TIME_LIMIT_S = 170  # per workload run (all three for --trace 1): ends within three minutes
OUT_DIR = Path(".perfbench_out")

# sha256 of the first pass's outputs (elapsed= fields removed) for the
# default seed, recorded at the commit that added the benchmark, keyed by
# (workload, tiny).  A change in any documented output shows as a mismatch.
DIGESTS = {
    ("long-words", False): "d3e857a72f0bc56c775f2ffcabeda4d5acd7bb0d3d194fb4898805314d8d431d",
    ("long-words", True): "d22dc03c48ea2881b3bd9cf615a607d983380740e8ae62ea952db896d3ea1262",
    ("exhaustive", False): "55b2ab00cb3e1327efcb3a20f35640b62dbeb405e5e5330f37e5dcea84eda87d",
    ("exhaustive", True): "a7340f84a2681a7c1615a17a7a10ee42c748ae30d5bcb7da42bf03e9efd8939c",
    ("rewrite", False): "249b5acd493e68ed2d664ba7732a42e3e6fd5837d9f3cb1ca83b150c7f38f134",
    ("rewrite", True): "dac31cdf24239bfdf2a60ef21ac19d67f4ef129069fb80c5545849fcd3c36ff2",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def provenance(seed) -> dict:
    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], capture_output=True, text=True, timeout=30, check=True
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and Path(top).resolve() == Path.cwd().resolve()
    status = git("status", "--porcelain") if inside else None
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD") if inside else None,
        "git_dirty": None if status is None else bool(status),
    }


class Child:
    """One worker process; stdout is read to the end, the process always reaped."""

    def __init__(self, deadline, workload, seed, seconds, phase, tiny):
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--phase", phase,
        ]
        if tiny:
            argv.append("--tiny")
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)

    def _left(self):
        return max(1.0, self.deadline - time.monotonic())

    def run(self):
        """Return (set-up seconds, last stdout line)."""
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            first = self.proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - self.started
            if first.strip() != "ready":
                raise BenchError(f"worker failed during set-up: {first.strip()!r}")
            rest, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the time limit") from None
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        lines = rest.strip().splitlines()
        return setup_s, lines[-1] if lines else ""


def neighbourhood(medians, groups, q) -> str:
    """The request groups of the slots within two ranks of the q-quantile
    of the slot medians, and how far apart the two ends of that window
    are.  A quantile on a boundary between two classes of different
    latency shows as a wide window; it would flip from run to run."""
    ranked = sorted(zip(medians, groups))
    position = q * (len(ranked) + 1) - 1  # statistics.quantiles' exclusive method
    window = ranked[max(0, int(position) - 2) : int(position) + 4]
    names = "|".join(dict.fromkeys(group for _, group in window))
    return f"{names} (window {window[-1][0] / window[0][0] - 1:+.0%})"


def latency_metrics(samples) -> tuple:
    """requests_per_s, and the 50th and 90th percentiles (ms), of the slot
    medians: each slot's latency is its median over the run's passes, so
    the estimate does not shift with the number of passes."""
    medians = [statistics.median(s) for s in samples]
    deciles = statistics.quantiles(medians, n=10)
    return len(medians) / sum(medians), deciles[4] * 1e3, deciles[8] * 1e3


def end_to_end(workload, args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups, raw_setups = [], []
    before = reference.timed()
    for _ in range(SETUP_REPEATS):
        setup_s, _ = Child(deadline, workload, args.seed, 0, "setup", args.tiny).run()
        after = reference.timed()
        setups.append(setup_s * 2 * reference.NOMINAL_S / (before + after))
        raw_setups.append(setup_s)
        before = after
    _, line = Child(deadline, workload, args.seed, args.seconds, "measure", args.tiny).run()
    result = json.loads(line)
    errors = list(result["errors"])
    expected = DIGESTS[(workload, args.tiny)]
    if args.seed == DEFAULT_SEED and result["digest"] != expected:
        errors.append(f"output digest {result['digest']} != recorded {expected}")
    requests = sum(len(s) for s in result["samples"])
    rps, p50, p90 = latency_metrics(result["samples"])
    raw_rps, raw_p50, raw_p90 = latency_metrics(result["raw_samples"])
    metrics = {
        "setup_s": (statistics.median(setups), statistics.median(raw_setups), SETUP_REPEATS),
        "requests_per_s": (rps, raw_rps, requests),
        "latency_p50_ms": (p50, raw_p50, requests),
        "latency_p90_ms": (p90, raw_p90, requests),
    }
    metrics = {k: (v, f"scaled; raw {raw:.6g}; {n} samples") for k, (v, raw, n) in metrics.items()}
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "measuring process")
    medians = [statistics.median(s) for s in result["samples"]]
    return {
        "metrics": metrics,
        "workload_metrics": result["workload_metrics"],
        "attempted": result["attempted"],
        "errors": errors,
        "details": {
            "passes": result["passes"],
            "slots": len(result["samples"]),
            "measured_s": result["measured_s"],
            "digest": result["digest"],
            "p50_in": neighbourhood(medians, result["groups"], 0.5),
            "p90_in": neighbourhood(medians, result["groups"], 0.9),
            "setup_samples_s": raw_setups,
            "slot_samples_s": result["samples"],
            "raw_slot_samples_s": result["raw_samples"],
            "reference_slices_s": result["reference_slices_s"],
        },
    }


def traced(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    metrics, spans, errors, attempted = {}, [], [], 0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    overhead = {}
    for workload in WORKLOADS:
        _, line = Child(deadline, workload, args.seed, 0, "trace", args.tiny).run()
        result = json.loads(line)
        metrics.update({k: (v, "traced run") for k, v in result["layer_metrics"].items()})
        for layer in LAYERS:
            layer_self[layer] += result["layer_self_s"].get(layer, 0.0)
        if result["untraced_s"] is not None:
            overhead[workload] = result["traced_s"] - result["untraced_s"]
        errors += result["errors"]
        attempted += result["attempted"]
        spans += [[workload, *span] for span in result["spans"]]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds, "sum of span self times")
    metrics["trace.overhead_s"] = (sum(overhead.values()), f"traced minus untraced, {list(overhead)}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-seed{args.seed}{'-tiny' if args.tiny else ''}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for workload, name, start, end, parent, job in spans:
            record = {"workload": workload, "name": name, "start": start, "end": end}
            handle.write(json.dumps({**record, "parent": parent, "job": job}) + "\n")
    return {
        "metrics": metrics,
        "workload_metrics": {},
        "attempted": attempted,
        "errors": errors,
        "details": {"overhead_s": overhead, "spans_file": str(spans_file), "spans": len(spans)},
    }


def report(spec, label, args, outcome, prov) -> dict:
    """Print one workload's metrics and write its result file; return the
    result line's fields."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    errors = list(outcome["errors"])
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing and not outcome["errors"]:
        errors.append(f"metrics not produced: {', '.join(missing)}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, (value, _) in outcome["metrics"].items()
        if name in units
    }
    print(f"== {label} seed={args.seed} trace={args.trace} " + json.dumps(prov))
    for name, (value, basis) in outcome["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {units.get(name, '?'):<6} ({basis})")
    for name, (value, unit, samples) in outcome["workload_metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {unit:<6} ({samples} samples; not bounded)")
    attempted, failed = outcome["attempted"], len(errors)
    print(f"  {'error_rate':<46} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)")
    for key, value in outcome["details"].items():
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    for error in errors[:20]:
        print(f"  FAILED {error}")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{label}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    fields = {"correct": not errors, "attempted": attempted, "failed": failed}
    record = {
        "provenance": prov,
        "workload": label,
        **fields,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "workload_metrics": outcome["workload_metrics"],
        "details": outcome["details"],
        "errors": errors,
    }
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {**fields, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        if not Path("src/circparikh/__init__.py").is_file():
            raise BenchError("run from the root of a circparikh checkout (src/ is missing)")
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        prov = provenance(args.seed)
        if args.trace:
            results = [report(spec, args.workload, args, traced(args), prov)]
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            results = [
                report(spec, name, args, end_to_end(name, args), prov)
                for name in names
            ]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc!r}", file=sys.stderr)
        return 2
    if len(results) == 1:
        line = results[0]
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in zip(WORKLOADS, results)
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
