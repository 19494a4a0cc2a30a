#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

The last class runs a shortened (--smoke) version of every workload,
building tdc_run first if needed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span_tree(*rows):
    """rows: (parent, name, start, end), parents by row index."""
    return [list(r) for r in rows]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        total, own, calls = run.self_times(span_tree((-1, "a", 5, 25)))
        self.assertEqual((total["a"], own["a"], calls["a"]), (20, 20, 1))

    def test_children_are_subtracted_from_parent(self):
        total, own, _ = run.self_times(span_tree(
            (-1, "root", 0, 100), (0, "x", 10, 30), (0, "y", 40, 50)))
        self.assertEqual(total["root"], 100)
        self.assertEqual(own["root"], 70)
        self.assertEqual(own["x"], 20)
        self.assertEqual(own["y"], 10)

    def test_only_direct_children_count(self):
        total, own, _ = run.self_times(span_tree(
            (-1, "root", 0, 100), (0, "child", 10, 60),
            (1, "grandchild", 20, 30)))
        self.assertEqual(own["root"], 50)
        self.assertEqual(own["child"], 40)
        self.assertEqual(own["grandchild"], 10)
        self.assertEqual(total["child"], 50)

    def test_overlapping_and_overhanging_children_count_once(self):
        _, own, _ = run.self_times(span_tree(
            (-1, "root", 0, 100), (0, "c", 10, 50), (0, "c", 40, 70),
            (0, "c", 90, 120)))
        # Covered: [10, 70) and [90, 100) of the root.
        self.assertEqual(own["root"], 30)

    def test_spans_of_one_name_sum(self):
        total, own, calls = run.self_times(span_tree(
            (-1, "op", 0, 10), (-1, "op", 20, 50), (1, "inner", 25, 35)))
        self.assertEqual((total["op"], own["op"], calls["op"]), (40, 30, 2))


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_and_units_follow_the_grammar(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, (unit, better) in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
                self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_the_runner(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"])
                      for m in self.spec[key]}
            self.assertEqual(listed, table)
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertIn("setup_s", run.END_TO_END)

    def test_layer_metrics_fill_every_per_layer_name(self):
        names = ["driver.op/x", "cpu.batch.fat", "cpu.batch.lean",
                 "cpu.run.fat", "cpu.run.lean", "cpu.serial"]
        spans = [[-1, n, 0, 1000] for n in names]
        counts = {k: 2.0 for k in (
            "cpu.kcycles.fat", "cpu.kcycles.lean", "cpu.sim_cycles",
            "cpu.sim_instructions", "cpu.runs", "workload.instructions",
            "core.recover.calls", "core.recover.failed",
            "core.recover.row_reads", "core.scrub.rows", "core.reads",
            "core.writes", "array.inject.events", "array.extract.calls",
            "array.deposit.calls", "scheme.trials",
            "reliability.cache.lookups", "service.requests.clean",
            "service.requests.faulted", "service.rbw_absorbed",
            "service.rbw_charged", "service.recoveries",
            "service.recovery_row_reads", "service.scrub_steps",
            "reliability.cache.memory_hits", "reliability.cache.disk_hits",
            "reliability.cache.misses", "reliability.cache.stored")}
        for code in ("edc8.encode", "edc8.decode_clean",
                     "secded.decode_dirty", "oecned.decode_dirty",
                     "rs15_12.decode"):
            counts["ecc.%s.calls" % code] = 4.0
        m = run.layer_metrics({"spans": spans, "counts": counts}, 0.5)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["trace.traced_wall_s"], 1e-6)
        self.assertEqual(m["trace.overhead_s"], 1e-6 - 0.5)

    def test_percentile_keeps_ten_samples_beyond(self):
        d = run.dist(list(range(20)))
        self.assertEqual(d["n"], 20)
        self.assertEqual(d["p50"], 9)
        self.assertEqual(len(run.dist([1.0] * 10)), 2)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        self.assertEqual(compare.verdict(base, [v * 0.8 for v in base],
                                         "lower", 0.1)[0], "better")
        self.assertEqual(compare.verdict(base, [v * 1.3 for v in base],
                                         "lower", 0.1)[0], "worse")
        self.assertEqual(compare.verdict(base, base[::-1], "lower",
                                         0.1)[0], "unchanged")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(base, noisy, "lower", 0.1)[0],
                         "unresolved")
        self.assertEqual(compare.verdict(base, [v * 1.3 for v in base],
                                         "higher", 0.1)[0], "better")


class SmokeRunTest(unittest.TestCase):
    """A shortened run of each workload completes with zero failed ops."""

    def bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-2000:])
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def check(self, workload):
        result = self.bench(workload, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertTrue(all(m["value"] > 0
                            for m in result["metrics"].values()))
        # Twice, so the second traced run checks the first one's counts.
        for _ in range(2):
            traced = self.bench(workload, 1)
            self.assertEqual(traced["failed"], 0)
            self.assertEqual(set(traced["metrics"]), set(run.PER_LAYER))

    def test_ipc(self):
        self.check("ipc")

    def test_inject(self):
        self.check("inject")

    def test_serve(self):
        self.check("serve")


if __name__ == "__main__":
    unittest.main()
