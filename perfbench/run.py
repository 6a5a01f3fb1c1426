#!/usr/bin/env python3
"""End-to-end benchmark of the three FTIO paths.

Builds the benchmark binary from this checkout (perfbench/CMakeLists.txt
adds the repository's own ftio library target, Release) and runs one
workload:

    python3 perfbench/run.py --workload offline_paper --seed 1 --seconds 15 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; spans of a traced run are written to
<build dir>/work/spans-<workload>.csv. Each workload's fixed parameters
are constants in its perfbench/*.cpp file; perfbench/workloads.json
describes them and every metric.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
with --trace 0, every per_layer metric with --trace 1. A per-layer metric
of a layer the workload never calls reads 0. Exits non-zero, without a
result line, when the build or the run fails, and with a result line
whose "correct" is false when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr.
    ccache, which the root CMakeLists.txt picks up when installed, is off:
    its cache lives outside the checkout."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ftio_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_dir, "work")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    print(f"perfbench: {args.workload} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"run exited {run.returncode} without a result")

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = got
    if args.trace:
        print(f"perfbench: spans in {os.path.join(build_dir, 'work')}",
              file=sys.stderr)
    print(json.dumps({"correct": bool(result["correct"]) and run.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
