#!/usr/bin/env python3
"""Benchmark trend tracking: append BENCH_*.json runs to a history CSV and
gate on regressions.

Usage:
    tools/bench_trend.py --history BENCH_history.csv [--label ci] \
        [--max-regression 0.10] BENCH_engine.json BENCH_sweep.json ...

Each input JSON is flattened into one history row:
    date,label,bench,context,metric,value
where `metric` is every numeric scalar in the file and `context` pins the
measurement conditions (app, machine, kernel, jobs, smoke, ...) so that
only like-for-like rows are ever compared. A run on a new context is
recorded without gating — there is nothing to compare it against.

Three gates, all applied before the new rows are appended:

  * kernel ordering — an engine_throughput record must show
    native >= bytecode >= interp accesses/sec (small tolerance for timing
    noise). A compiled kernel slower than the interpreter is a defect, not
    a trend.
  * throughput regression — for the headline rate metric of each bench
    (cells_per_second, *_accesses_per_sec, *_eps), the new value must be
    within --max-regression (default 10%) of the most recent history row
    with the same (bench, context, metric).
  * latency regression — for latency metrics (*_latency_us, lower is
    better), the new value must not *rise* more than --max-regression over
    the most recent like-for-like history row. This is what gates the
    incremental advisor's refresh latency (BENCH_advisor.json).

Exit codes follow the repo convention: 0 ok, 2 usage, 3 gate failure.
"""

import argparse
import csv
import datetime
import json
import os
import sys

# Keys that pin a measurement's conditions rather than measure anything.
CONTEXT_KEYS = (
    "bench", "app", "machine", "kernel", "ranks", "jobs", "cores",
    "build_type", "compiler", "os_kernel",
    "smoke", "reps", "events", "accesses_per_run", "cells_total",
    "cells_in_shard", "shards",
)

# Metrics gated against history (higher is better for all of them).
RATE_SUFFIXES = ("_accesses_per_sec", "_eps")
RATE_METRICS = ("cells_per_second",)

# Latency metrics gated the other way around (lower is better). Only the
# mean carries the suffix on purpose: p95/max of a handful of refreshes
# are too noisy for a hard 10% gate and are recorded as plain metrics.
LATENCY_SUFFIXES = ("_latency_us",)

# Allow 2% noise on the kernel ordering: the ladder must hold, but two
# kernels within measurement jitter of each other are not a violation.
ORDERING_TOLERANCE = 0.98


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(prefix + key + "." if isinstance(item, dict)
                    else prefix + key, item, out)
    elif isinstance(value, bool):
        out[prefix] = str(value).lower()
    elif isinstance(value, (int, float, str)):
        out[prefix] = value


def load_record(path):
    with open(path) as f:
        data = json.load(f)
    flat = {}
    flatten("", data, flat)
    bench = str(flat.get("bench", os.path.basename(path)))
    context = ";".join(
        f"{k}={flat[k]}" for k in CONTEXT_KEYS if k in flat and k != "bench")
    metrics = {
        k: v for k, v in flat.items()
        if isinstance(v, (int, float)) and k not in CONTEXT_KEYS
    }
    return bench, context, metrics


def is_rate_metric(name):
    return name in RATE_METRICS or name.endswith(RATE_SUFFIXES)


def is_latency_metric(name):
    return name.endswith(LATENCY_SUFFIXES)


def check_kernel_ordering(bench, metrics, errors):
    """native >= bytecode >= interp (each rung only when measured)."""
    interp = metrics.get("interp_accesses_per_sec")
    bytecode = metrics.get("bytecode_accesses_per_sec")
    native = metrics.get("native_accesses_per_sec")
    if bytecode is not None and interp is not None:
        if bytecode < interp * ORDERING_TOLERANCE:
            errors.append(
                f"{bench}: kernel ordering violated: bytecode "
                f"{bytecode:.0f} < interp {interp:.0f} accesses/sec")
    if native is not None and bytecode is not None:
        if native < bytecode * ORDERING_TOLERANCE:
            errors.append(
                f"{bench}: kernel ordering violated: native "
                f"{native:.0f} < bytecode {bytecode:.0f} accesses/sec")


def read_history(path):
    """(bench, context, metric) -> latest value, in file order."""
    latest = {}
    if not os.path.exists(path):
        return latest
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            try:
                value = float(row["value"])
            except (KeyError, ValueError):
                continue
            latest[(row["bench"], row["context"], row["metric"])] = value
    return latest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="BENCH_*.json files")
    parser.add_argument("--history", default="BENCH_history.csv")
    parser.add_argument("--label", default="local",
                        help="row label (e.g. ci, local)")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="max fractional rate drop vs history")
    parser.add_argument("--no-append", action="store_true",
                        help="gate only; do not extend the history")
    args = parser.parse_args()

    latest = read_history(args.history)
    errors = []
    new_rows = []
    date = datetime.date.today().isoformat()

    for path in args.inputs:
        try:
            bench, context, metrics = load_record(path)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2
        check_kernel_ordering(bench, metrics, errors)
        for metric, value in sorted(metrics.items()):
            key = (bench, context, metric)
            if is_rate_metric(metric) and key in latest and latest[key] > 0:
                drop = (latest[key] - value) / latest[key]
                if drop > args.max_regression:
                    errors.append(
                        f"{bench}: {metric} regressed {100 * drop:.1f}% "
                        f"({latest[key]:.2f} -> {value:.2f}) "
                        f"[context: {context or '-'}]")
                else:
                    status = "ok" if drop >= 0 else "improved"
                    print(f"{bench}: {metric} {latest[key]:.2f} -> "
                          f"{value:.2f} ({status})")
            elif is_latency_metric(metric) and key in latest \
                    and latest[key] > 0:
                rise = (value - latest[key]) / latest[key]
                if rise > args.max_regression:
                    errors.append(
                        f"{bench}: {metric} regressed {100 * rise:.1f}% "
                        f"({latest[key]:.2f} -> {value:.2f} us) "
                        f"[context: {context or '-'}]")
                else:
                    status = "ok" if rise >= 0 else "improved"
                    print(f"{bench}: {metric} {latest[key]:.2f} -> "
                          f"{value:.2f} ({status})")
            elif is_rate_metric(metric) or is_latency_metric(metric):
                print(f"{bench}: {metric} {value:.2f} (new context, "
                      f"recorded as baseline)")
            new_rows.append([date, args.label, bench, context, metric,
                             repr(value) if isinstance(value, float)
                             else str(value)])

    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        return 3

    if not args.no_append:
        fresh = not os.path.exists(args.history)
        with open(args.history, "a", newline="") as f:
            writer = csv.writer(f)
            if fresh:
                writer.writerow(
                    ["date", "label", "bench", "context", "metric", "value"])
            writer.writerows(new_rows)
        print(f"appended {len(new_rows)} row(s) to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
