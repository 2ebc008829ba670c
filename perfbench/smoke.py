#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself, at a tiny scale factor.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced at
SF 0.005 with a 1-second measuring window, and fails unless each run
passes its correctness gate, prints exactly the metrics BENCHMARK.json
names with their units and finite values, gives positive end-to-end
values, and selects the same queries with and without tracing. It keeps
the metric names, the checks and BENCHMARK.json from drifting apart; it
measures nothing.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SF = "0.005"
NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, spec.keys()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(set(n) <= NAME_OK and len(n) <= 64 for n in names), names
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--sf", SF]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and lines, f"{workload} trace={trace}: exit {proc.returncode}"
    record = json.loads(lines[-2][len("perfbench-record "):])
    return record, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        fingerprints = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            record, result = run(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{w['name']}: metrics {got} != {want}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (k, v)
                assert group != "end_to_end" or v["value"] > 0, (k, v)
            fingerprints.append(record["fingerprint"])
        assert fingerprints[0] == fingerprints[1], f"{w['name']}: traced selection differs"
        print(f"smoke ok: {w['name']} fingerprint {fingerprints[0]}")


if __name__ == "__main__":
    main()
