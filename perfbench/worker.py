"""One workload in one fresh process; started by run.py, never by hand.

    worker.py --workload NAME --seed N --seconds S --phase setup|measure|trace [--tiny]

Every phase first sets the workload up (import the package, build the
first pass's inputs from the seed) and prints ``ready``.  `setup` stops
there.  `measure` repeats whole passes until S seconds have gone by,
untraced, and prints per-slot latencies.  `trace` runs one pass
untraced, the same pass traced, then the workload's traced probes, and
prints the spans and the per-layer metrics.  A workload whose pass
carries only a few spans skips the untraced pass (`compare_untraced`).  The last stdout line is
always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import workloads
from reference import Reference
from tracer import Tracer, self_times


def run_ops(ops, tracer, keep=False, reference=None):
    """Issue each op in order and check its result right away, outside the
    timing, so that only one result is alive at a time.  Return the
    latencies, digest texts, errors and (with `keep`) the results.  With a
    `reference`, time reference slices between the ops."""
    latencies, texts, errors, kept = [], [], [], []
    for op in ops:
        if reference is not None:
            reference.before()
        start = time.perf_counter()
        try:
            with tracer.span("bench." + op.kind, f"{op.kind}#{op.slot}"):
                result = op.run(tracer)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        latencies.append(time.perf_counter() - start)
        if reference is not None:
            reference.after(latencies[-1])
        if isinstance(result, Exception):
            text, error = "", f"{op.kind}: raised {result!r}"
        else:
            try:
                text, error = op.check(result)
            except Exception as exc:  # a malformed result is a wrong output
                text, error = "", f"{op.kind}: check raised {exc!r}"
        texts.append(f"{op.slot}:{op.kind}:{text}")
        if error:
            errors.append(error)
        if keep:
            kept.append(op.summary(result))
        del result
    return latencies, texts, errors, kept


def measure(workload, seconds):
    """Whole passes until `seconds` have gone by.  Each latency is kept raw
    and scaled to the nominal host speed (see reference.py)."""
    ops = workload.first_pass
    samples = [[] for _ in ops]
    raw = [[] for _ in ops]
    slices = []
    errors, attempted, passes, digest = [], 0, 0, None
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        if passes:
            ops = workload.make_pass()
        ref = Reference()
        latencies, texts, pass_errors, _ = run_ops(ops, Tracer(False), reference=ref)
        ref.close()
        if passes == 0:
            digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        for slot, (latency, scale) in enumerate(zip(latencies, ref.scales())):
            samples[slot].append(latency * scale)
            raw[slot].append(latency)
        slices += ref.slices
        errors += pass_errors
        attempted += len(ops)
        passes += 1
    kinds = [op.kind for op in ops]
    return {
        "groups": [op.group for op in ops],
        "samples": samples,
        "raw_samples": raw,
        "reference_slices_s": slices,
        "passes": passes,
        "measured_s": time.perf_counter() - start,
        "attempted": attempted,
        "errors": errors,
        "digest": digest,
        "workload_metrics": workload.workload_metrics(kinds, samples),
    }


def trace(workload):
    ops = workload.first_pass
    untraced_s = sum(run_ops(ops, Tracer(False))[0]) if workload.compare_untraced else None
    tracer = Tracer(True)
    latencies, _, errors, results = run_ops(ops, tracer, keep=True)
    traced_s = sum(latencies)
    done = list(zip(ops, results))
    probes = workload.trace_probes(done)
    _, _, probe_errors, probe_results = run_ops(probes, tracer, keep=True)
    done += zip(probes, probe_results)
    errors += probe_errors
    layer_self = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = span[0].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    metrics = workload.layer_metrics(tracer.spans, done) if not errors else {}
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "attempted": len(done),
        "errors": errors,
        "layer_self_s": layer_self,
        "layer_metrics": metrics,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    print("ready", flush=True)
    if args.phase == "setup":
        return 0
    if args.phase == "measure":
        result = measure(workload, args.seconds)
    else:
        result = trace(workload)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
