#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perf/run.py --workload spmd_npb|serve_recorded|cluster_dvfs \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench (perf/main.cpp plus the
simulator libraries under src/) into .bench_build/perf, runs the workload
for S seconds of host time, checks the results, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perf/README.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import aggregate  # noqa: E402  (must follow dont_write_bytecode)

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
# perfbench stops at the first pass boundary past --seconds; this bounds how
# long the last pass may run past it.
RUN_GRACE_S = 120


def build(root):
    """Configure and build perfbench; returns its path. Build output goes to
    stderr so the last stdout line stays the result."""
    build_dir = os.path.join(root, ".bench_build", "perf")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=args.seconds + RUN_GRACE_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    return proc.stdout.splitlines()


def fmt(value):
    return "n/a" if value is None else "%.10g" % value


def print_report(args, episodes, result):
    out = sys.stdout
    out.write("perf: workload %s, seed %d, %s run, %d episodes\n"
              % (args.workload, args.seed,
                 "traced" if args.trace else "untraced", len(episodes)))
    for line in aggregate.digest(args.workload, episodes):
        out.write("  digest: %s\n" % line)
    out.write("  %-40s %14s  %-8s %s\n" % ("metric", "value", "unit", "note"))
    for name, (value, unit) in result["metrics"].items():
        out.write("  %-40s %14s  %-8s %s\n" % (
            name, fmt(value), unit, result["notes"].get(name, "")))
    if not args.trace:
        attempted = result["attempted"]
        out.write("  %-40s %14s  %-8s %s\n" % (
            "error_rate", fmt(result["failed"] / attempted if attempted else 0.0),
            "ratio", "%d failed of %d" % (result["failed"], attempted)))
        for name, (value, unit) in result["report_only"].items():
            out.write("  %-40s %14s  %-8s %s\n" % (
                name, fmt(value), unit, "simulated, not gated"))
    for problem in result["problems"]:
        out.write("  FAIL: %s\n" % problem)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=aggregate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(os.path.dirname(HERE))
        episodes, end = aggregate.parse(run(binary, args))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        sys.stderr.write("perf: %s\n" % e)
        return 2
    result = aggregate.evaluate(args.workload, episodes, end, bool(args.trace))
    print_report(args, episodes, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
