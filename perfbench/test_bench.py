#!/usr/bin/env python3
"""The benchmark's own test: the traced pass is reproducible and complete.

    python3 perfbench/test_bench.py

For each workload it runs the traced pass twice on a reduced grid and
asserts that

  * both runs pass their output checks (the traced CSV equals the
    untraced one; queue's merged CSV equals the in-process run);
  * every deterministic counter (sim.events.*, the event-core structure
    counters, core.suspend*/blocked_by_*/wol_*, trace.cache_*, netsim.*,
    distrib.tasks) is identical across the two runs;
  * the layer-call spans under the "job" spans cover at least 95% of the
    summed per-run wall (the thread-pool task around each run).
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build + run_one)

DETERMINISTIC_PREFIXES = (
    "sim.events", "sim.far_", "sim.cascades", "sim.batches", "sim.slab_slots",
    "core.suspend", "core.blocked_by_", "core.wol_", "trace.cache_", "netsim.",
    "distrib.tasks",
)


def traced_run(binary, workload, attempt):
    spans = os.path.join(run.build_dir(), "work", "test",
                         "%s-%d.trace.json" % (workload, attempt))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    code, _, result = run.run_one(binary, workload, 7, 1, 1, ["--reduced", "--spans", spans])
    return code, result, spans


def span_coverage(path):
    """Summed layer-call spans over summed per-run wall.  A "job" span is
    the thread-pool task around one run, timed apart from its children."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    jobs = {e["args"]["id"]: e["dur"] for e in events if e["name"] == "job"}
    covered = sum(e["dur"] for e in events if e["args"]["parent"] in jobs)
    return covered / sum(jobs.values()), len(jobs)


class TracedPassTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def check_workload(self, workload):
        first = traced_run(self.binary, workload, 1)
        second = traced_run(self.binary, workload, 2)
        for code, result, spans in (first, second):
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            coverage, jobs = span_coverage(spans)
            self.assertGreater(jobs, 0)
            self.assertGreaterEqual(coverage, 0.95, "%s span coverage" % workload)
        a, b = first[1]["metrics"], second[1]["metrics"]
        self.assertEqual(sorted(a), sorted(b))
        counters = [n for n in a if n.startswith(DETERMINISTIC_PREFIXES)]
        self.assertGreater(len(counters), 20)
        for name in counters:
            self.assertEqual(a[name]["value"], b[name]["value"], "%s %s" % (workload, name))
        self.assertGreater(a["sim.events"]["value"], 0)

    def test_catalogue(self):
        self.check_workload("catalogue")

    def test_warmup(self):
        self.check_workload("warmup")

    def test_queue(self):
        self.check_workload("queue")


if __name__ == "__main__":
    unittest.main()
