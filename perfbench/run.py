#!/usr/bin/env python3
"""Run one FeatAug benchmark workload and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call builds the program from
source (sbt, offline) into .bench_build/ and later calls reuse that build
while the sources are unchanged. Each call starts one JVM that runs the
workload (see src/main/scala/repro/perfbench/Main.scala) and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and
the per-layer ones with --trace 1. A run whose checks fail prints
"correct": false and exits with code 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
JVM_HEAP = "3g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [os.path.join(BENCH_DIR, "build.sbt"),
              os.path.join(BENCH_DIR, "project", "build.properties")]
    for top in (PROGRAM_SRC, os.path.join(BENCH_DIR, "src")):
        for d, _, files in sorted(os.walk(top)):
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(stamp):
    """Compile with sbt unless this stamp is built; return the classpath."""
    cp_file = os.path.join(BUILD_DIR, "classpath.json")
    if os.path.exists(cp_file):
        with open(cp_file) as f:
            saved = json.load(f)
        if saved.get("stamp") == stamp:
            return saved["classpath"]
    env = dict(os.environ)
    # sbt's global state goes into the build directory, and no sbt server.
    env["SBT_OPTS"] = " ".join([
        env.get("SBT_OPTS", "-Dsbt.offline=true"),
        "-Dsbt.global.base=" + os.path.join(BUILD_DIR, "sbt-global"),
        "-Dsbt.server.autostart=false",
    ])
    print("perfbench: building (sbt compile)", file=sys.stderr)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    sys.stderr.write(out.stdout)
    if out.returncode != 0 or not lines:
        fail(f"build failed (sbt exit {out.returncode})")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as f:
        json.dump({"stamp": stamp, "classpath": classpath}, f)
    return classpath


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_fingerprint(record, sf, stamp):
    """The same code, workload, seed and SF must select the same queries
    with the same test loss in every run; returns a problem or None."""
    path = os.path.join(BUILD_DIR, "fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    env = record["env"]
    key = f"{record['workload']}|{env['workload_seed']}|{sf}|{stamp}"
    fp = record["fingerprint"]
    if key in seen and seen[key] != fp:
        return f"selection fingerprint {fp} differs from an earlier run's {seen[key]}"
    seen[key] = fp
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sf", type=float, default=None,
                    help="override the workload's scale factor (smoke checks)")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC)}; "
             "run from a full checkout of the repository")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    expected = expected_metrics(a.trace)

    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    stamp = source_stamp()
    classpath = build(stamp)

    local = os.path.join(BUILD_DIR, "spark-local")
    env = dict(os.environ, SPARK_LOCAL_DIRS=local)
    # A fixed-size heap, so heap growth does not vary run to run.
    cmd = ["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}",
           "-Djava.io.tmpdir=" + os.path.join(BUILD_DIR, "tmp"),
           "-Dspark.local.dir=" + local,
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.sql.warehouse.dir=" + os.path.join(BUILD_DIR, "warehouse"),
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.sf is not None:
        cmd += ["--sf", str(a.sf)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    records = [l for l in lines if l.startswith("perfbench-record ")]
    if not records or not lines:
        fail(f"no result from the benchmark JVM (exit {proc.returncode})")
    record = json.loads(records[-1][len("perfbench-record "):])
    result = json.loads(lines[-1])

    problems = list(record["failures"])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != expected:
        problems.append(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(expected.items())}")
    if result["correct"]:
        fp_problem = check_fingerprint(record, a.sf, stamp)
        if fp_problem:
            problems.append(fp_problem)
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    if problems and result["correct"]:
        result["correct"] = False
        result["failed"] += len(problems)

    print(records[-1])
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
