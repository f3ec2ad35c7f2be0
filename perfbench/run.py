#!/usr/bin/env python3
"""CachePortal benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the library and the benchmark from
source on first use (into $CARGO_TARGET_DIR, default .bench_build), runs
the named workload, prints every metric with its unit and sample count,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 runs the seed untraced, then traced, for half the seconds
each, and reports the per-layer metrics from the spans (see
trace_report.py) plus the tracing overhead. Exits non-zero, printing
no result, when the build, the set-up or the run fails, or when the
oracle finds a stale page.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import trace_report  # noqa: E402

WORKLOADS = ("browse", "write_heavy", "many_pages")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def end_to_end(result):
    """(name, value, unit, samples) of every end-to-end metric."""
    requests = result["requests"]
    setup = sorted(result["setup_s"])
    return [
        ("setup_s", setup[len(setup) // 2], "s", len(setup)),
        ("requests_per_s", requests / result["timed_s"], "1/s", requests),
        ("request_p50_us", result["request_us"]["p50"], "us",
         result["request_us"]["n"]),
        ("request_p99_us", result["request_us"]["high"], "us",
         result["request_us"]["n"]),
        ("sync_p50_ms", result["sync_ms"]["p50"], "ms", result["sync_ms"]["n"]),
        ("sync_p90_ms", result["sync_ms"]["high"], "ms",
         result["sync_ms"]["n"]),
        ("freshness_p50_ms", result["freshness_ms"]["p50"], "ms",
         result["freshness_ms"]["n"]),
        ("freshness_p90_ms", result["freshness_ms"]["high"], "ms",
         result["freshness_ms"]["n"]),
        ("hit_ratio", result["hit_ratio"], "ratio", requests),
        ("db_queries_per_request", result["db_queries_per_request"],
         "queries/req", requests),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", 1),
    ]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds into the build directory; returns the binary."""
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src",
                                       "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {' '.join(step)} failed: {error}")
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(step)} exited {code}")
    binary = os.path.join(build_dir, "cacheportal_bench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary, build_dir


def run_bench(binary, args, deadline):
    """Runs the benchmark binary; returns its parsed JSON result."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=max(1, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"run {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if lines:
            sys.stderr.write(lines[-1] + "\n")
        fail(f"run {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def print_table(rows):
    for name, value, unit, samples in rows:
        note = "  (no samples on this workload)" if samples == 0 else ""
        print(f"{name:<36}{value:>16.6g} {unit:<12} n={samples}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=9,
                        help="set-ups per run; setup_s is their median")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (smoke test)")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run one episode of exactly this many rounds, "
                        "not --seconds")
    args = parser.parse_args()

    started = time.monotonic()
    binary, build_dir = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # A traced invocation splits its time between the untraced and the
    # traced run of the seed.
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--seconds={seconds}"]
    if args.tiny:
        common.append("--tiny")
    if args.rounds > 0:
        common.append(f"--rounds={args.rounds}")

    if args.trace == 0:
        result = run_bench(binary, common + [f"--setups={args.setups}"],
                           deadline)
        rows = end_to_end(result)
        correct = result["correct"]
    else:
        # Set-up time is an end-to-end metric; one set-up per run suffices.
        untraced = run_bench(binary, common + ["--setups=1"], deadline)
        spans_path = os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.bin")
        result = run_bench(binary, common + ["--setups=1",
                                             f"--trace-out={spans_path}"],
                           deadline)
        metrics, report, gate_ok = trace_report.analyze(
            trace_report.load_spans(spans_path), result, untraced)
        os.remove(spans_path)
        for line in report:
            print(line)
        rows = [(name, value, unit, n)
                for name, (value, unit, n) in metrics.items()]
        correct = result["correct"] and untraced["correct"] and gate_ok

    errors = ", ".join(f"{k}={v}" for k, v in result["errors"].items())
    counters = result["counters"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['episodes']} episodes of {result['rounds']} rounds, "
          f"{result['requests']} requests, {result['updates']} updates, "
          f"{result['syncs']} syncs, {result['ejects']} ejects in "
          f"{result['timed_s']:.3f} s timed; oracle ran "
          f"{result['oracle_runs']} times; errors: {errors}; delivery "
          f"retries={counters['deliver.retries']:g}, "
          f"dead letters={counters['deliver.dead_lettered']:g}, "
          f"duplicate ejects={counters['wire.ejects_duplicate']:g}, "
          f"conservative invalidations="
          f"{counters['inval.conservative_invalidations']:g}")
    print_table(rows)
    print(f"wall time of this run: {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
