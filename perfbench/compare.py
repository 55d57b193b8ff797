#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing to mix build configurations.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a summary written by collect.py (for example
perfbench/BASELINE.json) or one result file sweep_bench writes under
.bench_build/work/results/.  Results from different build configurations
(compiler, NDEBUG, crash points, sanitizer, event core) are not
comparable: the script stops with exit status 2.  Otherwise it prints,
per workload and end-to-end metric, both medians and the change, and
judges it against the bound in BENCHMARK.json:

  regressed   NEW is worse than BASE by more than the bound
  unresolved  BASE's own spread is wider than the bound and NEW does not
              beat every BASE value
  ok          otherwise

The exit status is 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """-> (config, {workload: {metric: [values]}})"""
    with open(path) as f:
        doc = json.load(f)
    if "workloads" in doc:  # collect.py summary
        return doc["config"], {
            w: {m: s["values"] for m, s in entry["end_to_end"].items()}
            for w, entry in doc["workloads"].items()}
    return doc["config"], {doc["workload"]: {m: [v["value"]] for m, v in doc["metrics"].items()}}


def spread(values, med):
    """Interquartile distance as a share of the median (range below 4 values)."""
    if len(values) < 4:
        return (max(values) - min(values)) / med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_config, base = load(sys.argv[1])
    new_config, new = load(sys.argv[2])
    if base_config != new_config:
        print("refusing to compare different build configurations:\n  base %s\n  new  %s"
              % (json.dumps(base_config), json.dumps(new_config)), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    regressed = 0
    for workload in sorted(set(base) & set(new)):
        print("== %s ==" % workload)
        for name, metric in spec.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            sign = 1 if metric["better"] == "lower" else -1
            worse_by = sign * (nm - bm) / bm
            beats_all = all(sign * (x - y) < 0 for x in n for y in b)
            if worse_by > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            elif spread(b, bm) > metric["bound"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-20s %14.6g -> %14.6g %-7s %+7.2f%% (bound %.0f%%) %s"
                  % (name, bm, nm, metric["unit"], 100 * (nm - bm) / bm,
                     100 * metric["bound"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
