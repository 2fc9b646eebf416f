"""The benchmark's own tests.

Run from the root of a checkout (about two minutes; the smoke runs
start real workloads, including the HTTP service)::

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from benchlib import (  # noqa: E402
    Spans,
    TooFewSamples,
    percentile,
    report_problems,
    self_time_by_name,
    self_times,
)

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class PercentileRuleTest(unittest.TestCase):

    def test_p90_refused_below_one_hundred_samples(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(99)), 0.9)

    def test_p90_on_one_hundred_samples_is_allowed(self):
        self.assertAlmostEqual(percentile(list(range(1, 101)), 0.9), 90.1)

    def test_p50_needs_twenty_samples(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 0.5)
        self.assertAlmostEqual(percentile(list(range(20)), 0.5), 9.5)

    def test_report_quantiles_average_each_scenario_first(self):
        ref = benchlib.REFERENCE_S
        by_scenario = {"a": [1, 9, 2], "b": [5, 5, 4], "c": [1, 1, 1],
                       "d": [2, 2, 2], "e": [3, 3, 3], "f": [3, 3, 3],
                       "g": [3, 3, 3]}
        pairs = {name: [(t, ref) for t in times]
                 for name, times in by_scenario.items()}
        p50, worst = benchlib.report_quantiles(pairs)
        # scenario means 4, 14/3, 1, 2, 3, 3, 3
        self.assertAlmostEqual(worst, 14.0 / 3)
        self.assertGreater(p50, 2.5)
        self.assertLess(p50, 3.5)
        with self.assertRaises(TooFewSamples):
            benchlib.report_quantiles({"a": [(1.0, ref)] * 10,
                                       "b": [(2.0, ref)] * 9})


    def test_harrell_davis_weights(self):
        # n = 3: Beta(2, 2) puts 7/27, 13/27 and 7/27 on the thirds
        median = benchlib.harrell_davis_median
        self.assertAlmostEqual(median([0, 0, 27]), 7.0, places=3)
        self.assertAlmostEqual(median([27, 0, 27]), 20.0, places=3)
        self.assertAlmostEqual(median([5.0]), 5.0)
        self.assertAlmostEqual(median([1, 2, 3, 4]), 2.5)


class ReferenceScalingTest(unittest.TestCase):

    def test_slow_host_time_is_scaled_down(self):
        ref = benchlib.REFERENCE_S
        self.assertAlmostEqual(benchlib.to_reference(3.0, 2 * ref), 1.5)
        # the same report measured in a slow and a fast period
        pairs = {"a": [(2.0, 2 * ref), (1.0, ref), (0.5, ref / 2)] * 7}
        self.assertAlmostEqual(benchlib.report_quantiles(pairs)[0], 1.0)

    def test_host_clock_averages_samples_near_the_interval(self):
        clock = benchlib.HostClock()
        clock.stamps = [1.0, 2.0, 3.0, 4.0, 9.0]
        clock.samples = [0.1, 0.2, 0.3, 0.4, 0.9]
        self.assertAlmostEqual(clock.reference(1.95, 3.05), 0.25)
        self.assertAlmostEqual(clock.reference(1.0, 4.0, margin=0.0), 0.25)
        with self.assertRaises(ValueError):
            clock.reference(5.0, 6.0)

    def test_host_clock_samples_while_running(self):
        with benchlib.HostClock(period=0.001) as clock:
            start = time.perf_counter()
            time.sleep(0.2)
            end = time.perf_counter()
        self.assertGreater(len(clock.samples), 5)
        self.assertGreater(clock.reference(start, end), 0.0)


class SelfTimeTest(unittest.TestCase):

    def test_self_time_subtracts_children_union(self):
        spans = Spans()
        root = spans.add("report", 0.0, 10.0)
        spans.add("stress", 1.0, 4.0, parent=root)
        spans.add("search", 3.0, 6.0, parent=root)   # overlaps stress
        spans.add("search", 12.0, 13.0, parent=root)  # outside the parent
        child = spans.add("assemble", 7.0, 9.0, parent=root)
        spans.add("inner", 7.5, 8.0, parent=child)
        own = self_times(spans.records)
        self.assertAlmostEqual(own[root], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[child], 1.5)
        totals = self_time_by_name(spans.records)
        self.assertAlmostEqual(totals["search"], 4.0)
        self.assertAlmostEqual(totals["inner"], 0.5)

    def test_nested_context_spans_link_parents(self):
        ticks = iter(range(100))
        spans = Spans(clock=lambda: float(next(ticks)))
        with spans.span("report", key="fig1"):
            with spans.span("stress", key="fig1"):
                pass
        report, stress = spans.records
        self.assertEqual(stress["parent"], report["id"])
        self.assertEqual((report["start"], report["end"]), (0.0, 3.0))
        self.assertAlmostEqual(self_times(spans.records)[report["id"]], 2.0)


class OutputCheckTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        benchlib.use_repo_source()
        from repro.pipeline.report import ReproductionReport
        from repro.pipeline.session import ReproSession

        cls.text = ReproSession.from_scenario("apache-2").report().to_json()
        cls.strategies = ("chess", "chessX+dep", "chessX+temporal")
        cls.parse = staticmethod(ReproductionReport.from_json)

    def test_genuine_report_passes(self):
        self.assertEqual(report_problems(self.parse(self.text),
                                         self.strategies), [])

    def test_unreproduced_search_is_flagged(self):
        doc = json.loads(self.text)
        doc["searches"]["chessX+dep"]["reproduced"] = False
        problems = report_problems(self.parse(json.dumps(doc)),
                                   self.strategies)
        self.assertEqual(len(problems), 1)
        self.assertIn("did not reproduce", problems[0])

    def test_foreign_failure_signature_is_flagged(self):
        doc = json.loads(self.text)
        doc["searches"]["chess"]["failure"]["pc"] += 1
        problems = report_problems(self.parse(json.dumps(doc)),
                                   self.strategies)
        self.assertEqual(len(problems), 1)
        self.assertIn("different failure", problems[0])

    def test_missing_strategy_is_flagged(self):
        doc = json.loads(self.text)
        del doc["searches"]["chessX+temporal"]
        self.assertTrue(report_problems(self.parse(json.dumps(doc)),
                                        self.strategies))

    def test_drifting_counts_are_flagged(self):
        check = benchlib.DeterminismCheck()
        self.assertTrue(check.observe("fig1", {"chess": (3, 10, 7)}))
        self.assertTrue(check.observe("fig1", {"chess": (3, 10, 7)}))
        self.assertFalse(check.observe("fig1", {"chess": (4, 10, 7)}))
        passes = [{"search.total_steps": 10}, {"search.total_steps": 11}]
        self.assertEqual(benchlib.counts_agree(passes),
                         ["search.total_steps"])


class SmokeTest(unittest.TestCase):
    """A tiny run of every workload, untraced and traced."""

    def _run(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=benchlib.ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_every_workload(self):
        spec_path = os.path.join(benchlib.ROOT, "BENCHMARK.json")
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                metrics = self._run(workload, 0)
                for entry in spec["end_to_end"]:
                    self.assertEqual(metrics[entry["name"]]["unit"],
                                     entry["unit"])
                    self.assertGreater(metrics[entry["name"]]["value"], 0)
                metrics = self._run(workload, 1)
                for entry in spec["per_layer"]:
                    self.assertEqual(metrics[entry["name"]]["unit"],
                                     entry["unit"])
                for name in ("exec.retries", "exec.pool_rebuilds",
                             "exec.degraded"):
                    self.assertEqual(metrics[name]["value"], 0)


if __name__ == "__main__":
    unittest.main()
