"""One workload in its own process: set up, then time passes over the inputs.

Usage (started by run.py, one process per workload):

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --baseline
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Once the package is imported and the inputs are built it prints `ready`
and the CPU seconds the process has used since it was started; then,
unless --setup-only, one JSON line with the measurements.  With
--baseline it prints `ready` before importing the package, so the CPU
seconds are those of the interpreter and the benchmark's own imports
(numpy among them) alone.  Times are thread CPU
time scaled to the reference machine speed by the probe: the work is
single-threaded and does no I/O.
Untraced passes repeat while the next one is expected to end within S
seconds, at least twice.  With --trace 1, half the time goes to untraced
passes (at least one) and half to traced ones (at least two);
the traced and untraced verdicts must agree, and so must the call counts
of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_LINES = 20


def _passes(run_pass, probes, state, seconds, minimum, tracer_factory=None):
    """Run at least `minimum` passes, and more while they fit in `seconds` of wall time."""
    results, tracers = [], []
    start = time.perf_counter()
    while len(results) < minimum or (
        (time.perf_counter() - start) * (len(results) + 1) / len(results) <= seconds
    ):
        sampler = probe.Sampler(probes)
        if tracer_factory is None:
            with sampler:
                result = workloads.PassResult(sampler=sampler)
                run_pass(state, result)
        else:
            with tracer_factory() as tracer:
                result = workloads.PassResult(tracer=tracer, sampler=sampler)
                run_pass(state, result)
            tracers.append(tracer)
        results.append(result)
    return results, tracers


def measure(name, state, seconds, trace, spans_path=None):
    _, run_pass, probes = workloads.WORKLOADS[name]
    plain_seconds = seconds / 2 if trace else seconds
    plain, _ = _passes(run_pass, probes, state, plain_seconds, 1 if trace else 2)
    traced, tracers = [], []
    if trace:
        traced, tracers = _passes(run_pass, probes, state, seconds / 2, 2,
                                  tracing.Tracer)

    everything = plain + traced
    failures = [line for r in everything for line in r.failures]
    errors = sum((r.errors for r in everything), Counter())
    consistency = []
    if any(r.verdicts != plain[0].verdicts for r in everything[1:]):
        consistency.append("verdicts differ between passes (traced or untraced)")
    out = {
        "attempted": sum(len(r.verdicts) for r in everything),
        "failed": sum(r.failed for r in everything),
        "errors": errors,
        "failures": failures[:MAX_FAILURE_LINES],
        "pass_s": [r.seconds for r in plain],
        "pass_raw_s": [r.raw_seconds for r in plain],
        "probe_s": statistics.median(x for r in plain for x in r.probes),
        "latency_s": [r.latencies for r in plain],
        "largest_s": [x for r in plain for x in r.largest],
        "grid_points": sum(r.grid_points for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        summaries = [t.summary() for t in tracers]
        counts = [
            {k: v for k, v in s.items() if k.endswith((".calls", ".grid_points", ".bytes"))}
            for s in summaries
        ]
        if any(c != counts[0] for c in counts[1:]):
            consistency.append("traced passes made different call counts")
        layers = dict(summaries[0])
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] = statistics.median(s[key] for s in summaries)
        layers["trace.overhead_s"] = statistics.median(
            r.seconds for r in traced
        ) - statistics.median(r.seconds for r in plain)
        out["layers"] = layers
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for index, tracer in enumerate(tracers):
                    for span in tracer.spans:
                        fh.write(json.dumps([index, *span]) + "\n")
    out["consistency"] = consistency
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--baseline", action="store_true",
                        help="print `ready` without importing the package, and exit")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds is None and not (args.setup_only or args.baseline):
        parser.error("--seconds is required unless --setup-only or --baseline")

    if not args.baseline:
        state = workloads.WORKLOADS[args.workload][0](args.seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {usage.ru_utime + usage.ru_stime!r}", flush=True)
    if args.setup_only or args.baseline:
        return 0
    out = measure(args.workload, state, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
