#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes, about a minute on two cores.

Runs every workload of BENCHMARK.json once untraced and once traced through
the same command line as a full run (plus ``--tiny``) and checks the result
line: every named metric is present with its unit, the checks passed, no
operation failed, and the per-layer numbers match those recomputed from the
span dump. Exits 1 on the first problem.

    python3 perf/selftest.py
"""

import json
import os
import subprocess
import sys

import layers
import run


def run_once(workload, trace):
    command = [
        sys.executable, os.path.join(run.ROOT, "perf", "run.py"),
        "--workload", workload, "--seed", "11", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} --trace {trace}: exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check(workload, trace, result, spec):
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise SystemExit(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    if trace:
        with open(os.path.join(run.OUT, "spans", f"{workload}-seed11.json"), encoding="utf-8") as dump:
            recomputed = layers.layer_metrics(json.load(dump)["spans"])
        for name, value in recomputed.items():
            if result["metrics"][name]["value"] != value:
                raise SystemExit(f"{where}: {name} differs from the span dump")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(workload, trace, run_once(workload, trace), spec)
            print(f"ok {workload} --trace {trace}")


if __name__ == "__main__":
    main()
