#!/usr/bin/env python3
"""The repository benchmark: long-running longitudinal study workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the benchmark package (perfbench/CMakeLists.txt: the httpsrr
library, httpsrr_serve and the driver, in Release) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks its outputs and prints
as its last line one JSON object: correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics
and writes the spans and the per-layer table next to the build.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

# Shard count of each workload (the driver's own table holds the rest).
# study-prewarm-k2 is not in BENCHMARK.json: it is the in-process
# reference the README sets socket-k2 against.
WORKLOADS = {
    "study-prewarm-k1": 1,
    "study-capped-k4": 4,
    "socket-k2": 2,
    "study-prewarm-k2": 2,
}

DRIVER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds; False when the sources cannot build."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "perfbench_driver", "httpsrr_serve"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        return 1

    trace_dir = os.path.join(build_dir, "trace")
    stem = os.path.join(trace_dir, "%s-seed%d" % (args.workload, args.seed))
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--serve", os.path.join(build_dir, "httpsrr_serve")]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", stem + "-spans.jsonl"]
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    records = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    try:
        setups, days, end = metrics.records_of(records)
    except ValueError as error:
        log("driver exited %d: %s" % (done.returncode, error))
        return 1
    log("%s seed %d: %d days (%d steady) in %.1f s" % (
        args.workload, args.seed, len(days), len(metrics.steady(days)),
        time.monotonic() - started))

    clk_tck = os.sysconf("SC_CLK_TCK")
    shards = WORKLOADS[args.workload]
    if args.trace:
        values = metrics.per_layer(setups, days, end, clk_tck, shards)
        own = metrics.per_day(days)
        tables = "\n\n".join([
            metrics.format_table(args.workload + " day 1", own[0], shards),
            metrics.format_table(args.workload + " median steady day",
                                 metrics.median_day(metrics.steady(own)), shards),
        ])
        with open(stem + "-layers.txt", "w") as out:
            out.write(tables + "\n")
        sys.stderr.write(tables + "\n")
    else:
        values = metrics.end_to_end(setups, days, end, clk_tck)

    attempted, failed = metrics.operations(days)
    correct = bool(end["checks_ok"]) and done.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
