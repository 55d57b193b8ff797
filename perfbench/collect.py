#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads catalogue,warmup,queue]
        [--seeds 1-10] [--seconds S] [--traced] [--out FILE]

For every workload it runs the untraced pass once per seed and reports,
per end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median.  A spread above a third of the
metric's bound in BENCHMARK.json is flagged.  --traced adds one traced
run per workload (the first seed) and keeps its per-layer breakdown.
--out writes the summary as JSON in the format compare.py reads;
perfbench/BASELINE.json was written this way.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def bench(binary, workload, seed, seconds, trace):
    code, lines, result = run.run_one(binary, workload, seed, seconds, trace)
    if result is None or code != 0 or not result["correct"]:
        sys.stderr.write("\n".join(lines) + "\n")
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, code))
    config = next(json.loads(l[len("config "):]) for l in lines if l.startswith("config "))
    return result, config


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()

    spec = load_benchmark()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    binary = run.build()
    if binary is None:
        return 1

    summary = {"seeds": parse_seeds(args.seeds), "seconds": seconds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in summary["seeds"]:
            result, config = bench(binary, workload, seed, seconds, 0)
            if summary.setdefault("config", config) != config:
                raise SystemExit("build configuration changed between runs")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
        entry = {"end_to_end": {}}
        print("== %s (%d seeds, %g s) ==" % (workload, len(summary["seeds"]), seconds))
        for name, m in per_metric.items():
            s = summarise(m["values"])
            s["unit"] = m["unit"]
            entry["end_to_end"][name] = s
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
                flagged += 1
            print("  %-20s median %14.6f %-6s spread %.4f (bound %s)%s"
                  % (name, s["median"], m["unit"], s["spread"], bound, flag))
        if args.traced:
            result, _ = bench(binary, workload, summary["seeds"][0], seconds, 1)
            entry["per_layer"] = result["metrics"]
        summary["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
