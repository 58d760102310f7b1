"""Tests of the benchmark's analysis helpers. No build needed:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest
from pathlib import Path

import analysis


def event(name, ident, parent, ts_us, dur_us, agg=None, **args):
    """A span as the driver's TraceWriter writes it; `agg` is an optional
    (name, count, ns) aggregate of children."""
    args = dict(args, id=ident, parent=parent)
    if agg:
        args.update(agg=agg[0], agg_count=agg[1], agg_ns=agg[2])
    return {"name": name, "ph": "X", "ts": ts_us, "dur": dur_us, "args": args}


def raw_run(seed=analysis.DEFAULT_SEED):
    return {
        "workload": "rack_corun",
        "seed": seed,
        "params": {"nodes": 8, "jobs": 48},
        "groups": [
            {"key": "rack_corun", "ops": 48, "unfinished": 0,
             "digest": "866a1a455f52b62a", "violations": []},
            {"key": "rack_corun", "ops": 48, "unfinished": 0,
             "digest": "866a1a455f52b62a", "violations": []},
        ],
    }


GOLDEN = {"rack_corun": {"params": {"nodes": 8, "jobs": 48},
                         "digests": {"rack_corun": "866a1a455f52b62a"}}}


class TailPercentile(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        # 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
        pct, _ = analysis.tail_percentile(list(range(1000)))
        self.assertEqual(pct, 99.0)
        # 200 samples: p95 leaves 10, p99 only 2.
        pct, _ = analysis.tail_percentile(list(range(200)))
        self.assertEqual(pct, 95.0)
        # 10000 samples: p99.9 leaves 10.
        pct, _ = analysis.tail_percentile(list(range(10000)))
        self.assertEqual(pct, 99.9)

    def test_too_few_samples_for_any_percentile(self):
        self.assertIsNone(analysis.tail_percentile(list(range(19))))
        self.assertEqual(analysis.tail_percentile(list(range(20)))[0], 50.0)

    def test_value_is_interpolated_percentile(self):
        pct, value = analysis.tail_percentile([float(i) for i in range(101)] * 10)
        self.assertEqual(pct, 99.0)
        self.assertAlmostEqual(value, analysis.percentile(
            [float(i) for i in range(101)] * 10, 99.0))
        self.assertEqual(analysis.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)


class SelfTime(unittest.TestCase):
    def test_subtracts_direct_children_and_aggregates(self):
        events = [
            event("bench.iteration", 0, -1, 0.0, 100.0),
            event("core.CappedRunner.run", 1, 0, 10.0, 60.0,
                  agg=("core.Bmc.on_control_tick", 4, 5000.0)),
            event("core.CappedRunner.run", 2, 0, 75.0, 20.0),
        ]
        t = analysis.self_times(events)
        # iteration: 100 us - (60 + 20) us of children.
        self.assertAlmostEqual(t["bench.iteration"]["ns"], 20_000.0)
        # cells: 60 + 20 us minus 5 us of aggregated BMC ticks.
        self.assertAlmostEqual(t["core.CappedRunner.run"]["ns"], 75_000.0)
        self.assertEqual(t["core.CappedRunner.run"]["calls"], 2)
        self.assertAlmostEqual(t["core.Bmc.on_control_tick"]["ns"], 5_000.0)
        self.assertEqual(t["core.Bmc.on_control_tick"]["calls"], 4)
        # Self times partition the root span.
        self.assertAlmostEqual(sum(v["ns"] for v in t.values()), 100_000.0)

    def test_grandchildren_count_only_against_their_parent(self):
        events = [
            event("a", 0, -1, 0.0, 10.0),
            event("b", 1, 0, 1.0, 8.0),
            event("c", 2, 1, 2.0, 5.0),
        ]
        t = analysis.self_times(events)
        self.assertAlmostEqual(t["a"]["ns"], 2_000.0)
        self.assertAlmostEqual(t["b"]["ns"], 3_000.0)
        self.assertAlmostEqual(t["c"]["ns"], 5_000.0)

    def test_subtree_keeps_only_spans_under_the_root(self):
        events = [
            event("sched.characterize_job_classes", 0, -1, 0.0, 5.0),
            event("bench.iteration", 1, -1, 10.0, 10.0),
            event("sched.ClusterScheduler.run", 2, 1, 11.0, 8.0),
        ]
        names = [e["name"] for e in analysis.subtree(events, "bench.iteration")]
        self.assertEqual(names, ["bench.iteration", "sched.ClusterScheduler.run"])


class ReferenceSpeed(unittest.TestCase):
    def test_laps_scale_by_their_own_reference_time(self):
        ref = analysis.REFERENCE_S
        # One lap on a host at the reference speed, one on a host where the
        # kernel runs half as fast: the slow lap counts 1 / 2 ** ELASTICITY.
        it = {"traced": 0, "lap_s": [1.0, 2.0], "lap_ref_s": [ref, 2 * ref]}
        self.assertAlmostEqual(analysis.sample_s(it), 3.0)
        self.assertAlmostEqual(analysis.sample_ref_s(it),
                               1.0 + 2.0 / 2 ** analysis.ELASTICITY)

    def test_end_to_end_takes_untraced_medians(self):
        ref = analysis.REFERENCE_S
        raw = {"iterations": [{"traced": t, "lap_s": [s], "lap_ref_s": [ref]}
                              for t, s in ((0, 3.0), (1, 9.0), (0, 1.0), (0, 2.0))],
               "setups": [{"traced": 0, "lap_s": [s], "lap_ref_s": [r]}
                          for s, r in ((0.5, ref), (0.2, 2 * ref))],
               "peak_rss_mb": 10.0}
        m = analysis.end_to_end(raw)
        self.assertAlmostEqual(m["wall_s"], 2.0)
        self.assertAlmostEqual(m["setup_s"], (0.5 + 0.2 / 2 ** analysis.ELASTICITY) / 2)
        self.assertEqual(m["peak_rss_mb"], 10.0)


class Correctness(unittest.TestCase):
    def test_matching_golden_passes(self):
        attempted, failed, reasons = analysis.evaluate(raw_run(), GOLDEN)
        self.assertEqual((attempted, failed, reasons), (96, 0, []))

    def test_corrupted_golden_raises_fail_rate(self):
        golden = copy.deepcopy(GOLDEN)
        golden["rack_corun"]["digests"]["rack_corun"] = "0" * 16
        attempted, failed, reasons = analysis.evaluate(raw_run(), golden)
        self.assertGreater(failed / attempted, 0.0)
        self.assertTrue(reasons)

    def test_golden_for_other_parameters_fails_everything(self):
        golden = copy.deepcopy(GOLDEN)
        golden["rack_corun"]["params"]["jobs"] = 96
        attempted, failed, _ = analysis.evaluate(raw_run(), golden)
        self.assertEqual(failed, attempted)

    def test_other_seeds_check_invariants_only(self):
        golden = copy.deepcopy(GOLDEN)
        golden["rack_corun"]["digests"]["rack_corun"] = "0" * 16
        self.assertEqual(analysis.evaluate(raw_run(seed=7), golden)[1], 0)
        raw = raw_run(seed=7)
        raw["groups"][1]["violations"] = ["budget_violations = 3"]
        raw["groups"][0]["unfinished"] = 2
        self.assertEqual(analysis.evaluate(raw, golden)[1], 48 + 2)

    def test_golden_entry_round_trips(self):
        entry = analysis.golden_entry(raw_run())
        self.assertEqual(entry, GOLDEN["rack_corun"])
        raw = raw_run()
        raw["groups"][1]["digest"] = "1" * 16
        with self.assertRaises(ValueError):
            analysis.golden_entry(raw)


class BuildRefusal(unittest.TestCase):
    RELEASE = {"type": "Release", "optimized": 1, "ndebug": 1, "sanitizers": ""}

    def test_release_is_accepted(self):
        analysis.check_build(self.RELEASE)
        analysis.check_build(dict(self.RELEASE, type="RelWithDebInfo"))

    def test_debug_build_is_refused(self):
        for bad in (dict(self.RELEASE, type="Debug"),
                    dict(self.RELEASE, type=""),
                    dict(self.RELEASE, optimized=0),
                    dict(self.RELEASE, ndebug=0),
                    dict(self.RELEASE, sanitizers="address ")):
            with self.assertRaises(analysis.BuildRefused):
                analysis.check_build(bad)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(analysis.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(analysis.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(analysis.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
