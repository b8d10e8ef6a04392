#!/usr/bin/env python3
"""Builds and runs the JOCL end-to-end benchmark.

    python3 jbench/run.py --workload offline|ingest|serve \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 jbench/run.py --test        # the benchmark's own tests

Run from the repository root. The benchmark binary and the library it links are
built from source into .bench_build/jbench (first run only; later runs
reuse the build). Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result, re-printed after a schema check against
BENCHMARK.json. Traced runs write their spans to
.bench_build/jbench/traces/<workload>-seed<N>.json.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark and its tests; exits non-zero on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "jocl.h")):
        sys.exit("jbench: JOCL sources (src/) not found next to jbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("jbench: build failed: " + " ".join(cmd))


def check_schema(result, expected):
    """Raises ValueError unless result has the benchmark's output schema
    and reports exactly the metric names in expected (when given)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if not NAME.match(name):
            raise ValueError("bad metric name %r" % name)
        if set(metric) != {"value", "unit"} or not UNIT.match(metric["unit"]):
            raise ValueError("bad metric %r" % name)
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %r is not a finite number" % name)
    if expected is not None and set(result["metrics"]) != set(expected):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(expected) - set(result["metrics"])),
                                       sorted(set(result["metrics"]) - set(expected))))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["offline", "ingest", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.test:
        sys.exit(subprocess.run([os.path.join(BUILD, "jbench_test")]).returncode)

    cmd = [os.path.join(BUILD, "jbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("jbench: run exceeded %ds and was stopped" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("jbench: benchmark exited with %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        check_schema(result, expected_metrics(args.trace))
    except (ValueError, OSError, KeyError) as error:
        sys.exit("jbench: bad result line: %s" % error)
    print(lines[-1])


if __name__ == "__main__":
    main()
