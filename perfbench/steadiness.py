#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (IQR / median), the figure a metric's bound must exceed.

    python3 perfbench/steadiness.py --workload campaign --seeds 1-10 \
        [--seconds 20] [--trace 0|1] [--log runs.jsonl]

Run it from the repository root; it builds the benchmark first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--log", help="append every result line to this file")
    args = parser.parse_args()

    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join("perfbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                   check=True, env=env)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    values = {}
    for seed in args.seeds:
        command = [binary, "--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(command, capture_output=True, text=True, check=True, env=env)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{run.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':<36} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name, (unit, samples) in values.items():
        q1, _, q3 = statistics.quantiles(samples, n=4)
        median = statistics.median(samples)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<36} {unit:>6} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}")


if __name__ == "__main__":
    main()
