#!/usr/bin/env python3
"""Build and run the sweep benchmark.

    python3 perfbench/run.py --workload catalogue|warmup|queue|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator library from src/ plus the sweep_bench program)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed.  Each workload runs in its own process.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is non-zero when
the build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalogue", "warmup", "queue")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build():
    """Configure (once) and build; returns the sweep_bench path or None."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "sweep_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "sweep_bench")


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Run sweep_bench once; `extra` is appended to its command line.
    Returns (exit status, stdout lines, parsed result line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work-dir", os.path.join(build_dir(), "work")] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    if done.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        code, lines, result = run_one(binary, args.workload, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(lines))
        if result is None:
            return code or 1
        return code

    # One process per workload; the summary line namespaces each metric.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1] if result else lines))
        if result is None:
            return code or 1
        status = status or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
