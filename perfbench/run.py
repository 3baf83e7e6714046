#!/usr/bin/env python3
"""Benchmark of the dihedral-torus verifier: one workload per invocation.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: theorem-family, corollary-wide, element-queries, oracle-grid
(see perfbench/README.md).  The workload runs in a fresh child process
(perfbench/worker.py), single-threaded, importing the package from src/.
With --trace 0 it times the public entry points and reports the
end-to-end metrics.  All times are CPU time (the workloads are
single-threaded and do no I/O), scaled to a reference machine speed: on
a shared machine the speed of the CPU swings by up to 2x from one
minute to the next, and the scaling cancels that swing.  An operation is
scaled by a fixed probe of work timed around and during it (probe.py).
Set-up time is timed in fresh processes from launch until the package
is imported and the inputs are built, each followed by a baseline
process that stops before importing the package; it is scaled by the
baseline's CPU time.  Set-up counts against --seconds.  With --trace 1
it reports the per-layer metrics from a separate traced run.  Every
verdict is checked against a closed-form answer.

Every metric is printed by name with its unit, followed by the
environment; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full result set, with
the environment and the seed, is also written to .perfbench_out/.  The
exit code is 0 when every verdict is right, 1 when one is wrong, and 2
when the benchmark could not run (no result line is printed then).
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PAIRS = 15
# About the CPU seconds of a baseline process (worker.py --baseline) on the
# reference machine of probe.py when its probes read their reference times.
BASELINE_REFERENCE_S = 0.15
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from tracing import layer_metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args):
    # One thread: a numeric library must not add worker threads whose CPU
    # time would count in the measurement.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def _await_ready(proc, deadline: float) -> float:
    """CPU seconds of the worker from launch until it printed `ready`."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    fields = (proc.stdout.readline() if ready else "").split()
    if len(fields) != 2 or fields[0] != "ready":
        raise BenchError("worker did not finish set-up")
    return float(fields[1])


def _ready_seconds(args, deadline: float) -> float:
    proc = _spawn(args)
    try:
        cpu = _await_ready(proc, deadline)
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up worker ran past the deadline") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with {proc.returncode}")
    return cpu


def setup_seconds(workload: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(set-up, baseline) CPU seconds of pairs of fresh processes, one after the other.

    The baseline process stops before it imports the package.  The first
    pair only warms the caches and is left out.
    """
    args = ["--workload", workload, "--seed", str(seed)]
    pairs = [
        (_ready_seconds(args + ["--setup-only"], deadline),
         _ready_seconds(args + ["--baseline"], deadline))
        for _ in range(SETUP_PAIRS + 1)
    ]
    return pairs[1:]


def run_worker(workload, seed, seconds, trace, deadline, spans_path) -> dict:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path:
        args += ["--spans", spans_path]
    proc = _spawn(args)
    try:
        _await_ready(proc, deadline)
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics for the result line, further figures for the report).

    Latency percentiles are taken within each pass and their median over
    passes is reported, so they do not depend on how many passes ran.
    """
    per_pass_ms = [[x * 1000.0 for x in latencies] for latencies in raw["latency_s"]]
    metrics = {
        "setup_s": (
            BASELINE_REFERENCE_S * statistics.median(cpu / base for cpu, base in setup), "s"),
        "pass_s": (statistics.median(raw["pass_s"]), "s"),
        "largest_s": (statistics.median(raw["largest_s"]), "s"),
        "query_ms.p50": (statistics.median(percentile(p, 50) for p in per_pass_ms), "ms"),
        "query_ms.p95": (statistics.median(percentile(p, 95) for p in per_pass_ms), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    extra = {
        "fail_ratio": (raw["failed"] / raw["attempted"], "ratio"),
        "query_ms.samples_per_pass": (len(per_pass_ms[0]), "count"),
        "passes": (len(per_pass_ms), "count"),
        "setup_raw_s": (statistics.median(cpu for cpu, _ in setup), "s"),
        "setup_baseline_raw_s": (statistics.median(base for _, base in setup), "s"),
        "pass_raw_s": (statistics.median(raw["pass_raw_s"]), "s"),
        "probe_ms": (raw["probe_s"] * 1000.0, "ms"),
    }
    if raw["grid_points"]:
        oracle_s = sum(sum(latencies) for latencies in raw["latency_s"])
        extra["oracle_points_per_s"] = (raw["grid_points"] / oracle_s, "1/s")
    return metrics, extra


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy  # present: the worker cannot run the package without it

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dihedral_torus", "__init__.py")):
        print("error: src/dihedral_torus not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    deadline = time.monotonic() + DEADLINE_S
    try:
        started = time.monotonic()
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, deadline)
        # Set-up counts against the run's time; the worker still runs its
        # minimum number of passes.
        seconds = max(0.0, args.seconds - (time.monotonic() - started))
        raw = run_worker(args.workload, args.seed, seconds, args.trace, deadline,
                         stem + "-spans.jsonl" if args.trace else None)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = {name: unit for name, unit, _ in layer_metric_specs()}
        metrics = {name: (raw["layers"][name], unit) for name, unit in units.items()}
        extra = {"fail_ratio": (raw["failed"] / raw["attempted"], "ratio")}
    else:
        metrics, extra = end_to_end(raw, setup)
    correct = raw["failed"] == 0 and not raw["consistency"]
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for err, count in sorted(raw["errors"].items()):
        print(f"  error {err}: {count}")
    for line in raw["failures"] + raw["consistency"]:
        print(f"  FAILED {line}")
    print("  environment " + json.dumps(env, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result,
              "report": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
              "setup_samples": setup, "worker": raw}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
