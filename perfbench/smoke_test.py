#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 perfbench/smoke_test.py

For each workload it checks that
  - run.py prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) named in BENCHMARK.json, with its unit
    and sample count, and that the oracle passes (correct, 0 failed);
  - two runs of the same seed and round count give identical counters.
Exits non-zero on the first failure. Builds first if needed.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

ROUNDS = 40
SEED = 7
# Everything the library decides, and nothing timed.
DETERMINISTIC = ("requests", "updates", "syncs", "ejects", "attempted",
                 "failed", "hit_ratio", "db_queries_per_request", "counters",
                 "errors")


def run_py(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "5", "--trace", str(trace),
         "--tiny", "--rounds", str(ROUNDS), "--setups", "2"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} --trace {trace} exited "
                             f"{proc.returncode}")
    return proc.stdout.strip().splitlines()


def check_metrics(lines, expected, label):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{label}: oracle failed: {lines[-1]}")
    if result["attempted"] < 1:
        raise AssertionError(f"{label}: nothing attempted")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if (got is None or set(got) != {"value", "unit"} or
                got["unit"] != unit or
                not isinstance(got["value"], (int, float))):
            raise AssertionError(f"{label}: metric {name} is {got}")
        pattern = re.compile(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}"
                             rf"\s+n=\d+(  \(no samples on this workload\))?$")
        if not any(pattern.match(line) for line in lines[:-1]):
            raise AssertionError(f"{label}: no table line for {name}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        raise AssertionError(f"{label}: metrics not in BENCHMARK.json: "
                             f"{sorted(extra)}")


def check_deterministic(binary, workload):
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [binary, f"--workload={workload}", f"--seed={SEED}", "--tiny",
             f"--rounds={ROUNDS}", "--setups=1"],
            stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise AssertionError(f"{workload}: benchmark exited "
                                 f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        outputs.append({key: result[key] for key in DETERMINISTIC})
    if outputs[0] != outputs[1]:
        raise AssertionError(f"{workload}: counters differ between two runs "
                             f"of seed {SEED}:\n{outputs[0]}\n{outputs[1]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.chdir(ROOT)
    binary, _ = run.build()
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run_py(workload, 0), spec["end_to_end"],
                      f"{workload} --trace 0")
        check_metrics(run_py(workload, 1), spec["per_layer"],
                      f"{workload} --trace 1")
        check_deterministic(binary, workload)
        print(f"PASS {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
