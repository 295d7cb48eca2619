#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

    python3 perfbench/run.py --workload pipeline|advise|stream|sweep \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of the checkout. perfbench and the hmem library are
built (Release) into .bench_build/perfbench; later runs only re-check the
build. Build output goes to stderr, so the last stdout line is the
program's result: one JSON object with correct, attempted, failed, metrics.
With --trace 1 the spans are also written to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("pipeline", "advise", "stream", "sweep")


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", os.path.join(HERE, "expected_digests.txt")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # Replace this process with perfbench: no child outlives a killed run.
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
