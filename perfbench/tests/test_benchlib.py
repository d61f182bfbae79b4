"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib as bl  # noqa: E402
import run  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(bl.median(xs), 4.0)
        self.assertEqual(bl.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))
        q1, _, q3 = bl.quartiles(xs)
        self.assertAlmostEqual(bl.spread(xs), (q3 - q1) / 4.0)

    def test_percentile_interpolates(self):
        self.assertEqual(bl.percentile([10.0, 20.0], 50), 15.0)
        self.assertEqual(bl.percentile([1.0, 2.0, 3.0], 100), 3.0)
        self.assertEqual(bl.percentile([7.0], 90), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        hundred = [float(i) for i in range(1, 101)]
        # p99 and p95 leave 1 and 5 samples above them; p90 leaves 10.
        p, v = bl.tail_percentile(hundred, candidates=(99.0, 95.0, 90.0))
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(v, 90.1)
        thousand = [float(i) for i in range(1, 1001)]
        self.assertEqual(
            bl.tail_percentile(thousand, candidates=(99.0, 95.0))[0], 99.0)
        # The default candidates stop at p95.
        self.assertEqual(bl.tail_percentile(thousand)[0], 95.0)
        self.assertEqual(bl.tail_percentile([float(i) for i in range(150)])[0],
                         90.0)
        self.assertIsNone(bl.tail_percentile([float(i) for i in range(50)]))

    def test_geomean(self):
        self.assertAlmostEqual(bl.geomean([1.0, 100.0]), 10.0)

    def test_host_adjusted_scales_by_nominal_over_reference(self):
        self.assertEqual(bl.host_adjusted(30.0, 10.0, 5.0), 15.0)
        # A host twice as slow doubles both times: the adjusted time holds.
        self.assertEqual(bl.host_adjusted(60.0, 20.0, 5.0), 15.0)
        with self.assertRaises(ValueError):
            bl.host_adjusted(1.0, 0.0, 5.0)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(sid, parent, t0, t1):
        return {"id": sid, "parent": parent, "t0": t0, "t1": t1}

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            self.span(1, 0, 0.0, 10.0),
            self.span(2, 1, 1.0, 3.0),
            self.span(3, 1, 2.0, 5.0),    # overlaps span 2: counted once
            self.span(4, 1, 8.0, 12.0),   # clipped to the parent's end
            self.span(5, 2, 1.5, 2.5),    # grandchild: only span 2 pays
        ]
        selfs = bl.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(selfs[2], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_union_length(self):
        self.assertEqual(bl.union_length([]), 0.0)
        self.assertEqual(bl.union_length([(0, 1), (1, 2), (4, 5)]), 3.0)


class DigestFoldTest(unittest.TestCase):
    def test_fold_is_order_sensitive_32_bit_and_pinned(self):
        a = bl.digest_fold([1, 2, 3])
        self.assertEqual(a, bl.digest_fold([1, 2, 3]))
        self.assertNotEqual(a, bl.digest_fold([3, 2, 1]))
        self.assertLess(a, 2 ** 32)
        # Pinned: a change here changes every reported digest_fold.
        self.assertEqual(bl.digest_fold([]), 0xCBF29CE4 ^ 0x84222325)
        self.assertEqual(a, 2217141287)

    def test_fold_exact_as_json_number(self):
        d = bl.digest_fold([2 ** 64 - 1, 0x123456789ABCDEF0])
        self.assertEqual(json.loads(json.dumps(float(d))), d)


def engine_raw():
    """A minimal raw document shaped like perfbench's for sleeping. Every
    reference reads twice the nominal time, so adjusted times are halves."""
    ref = 2 * run.REF_NOMINAL_MS

    def trial(row, family, traced, wall, jobs):
        t = {"row": row, "family": family, "traced": traced,
             "wall_ms": wall, "ref_ms": ref, "execute_ms": wall - 1,
             "digest_ms": 1.0, "messages": 1.4e6, "bits": 1.1e7,
             "jobs": jobs, "allocs": 0}
        if traced:
            t.update(graph_ms=0, instance_ms=0, advice_ms=0, schedule_ms=5,
                     engine_ms=wall - 10, events=7.8e5, rounds=40,
                     awake_node_rounds=8e5, sleep_dropped=100, n=1e5,
                     synchronous=1)
        return t
    trials = []
    for traced in (False, True):
        for _ in range(3):
            trials += [trial("smis", "smis", traced, 800.0, 1),
                       trial("smis_par", "smis", traced, 320.0, 4),
                       trial("smatching", "smatching", traced, 1000.0, 1)]
    prep = {"row": "prepare", "family": "smis", "traced": False,
            "graph_ms": 60.0, "instance_ms": 240.0, "advice_ms": 0}
    spans = [{"name": "app.prepare", "id": 1, "parent": 0, "t0": 0.0,
              "t1": 300.0, "count": 1}]
    return {
        "header": {"workload": "sleeping"},
        "setup_s": [3.0, 2.0, 4.0], "setup_ref_ms": [ref, ref, ref],
        "cold_trial_ms": 1900.0, "peak_rss_mb": 300.0, "attempted": 18,
        "failed": 0, "checks": [], "digests": [1, 2, 3], "direct": {},
        "prepares": [prep],
        "passes": [{"row": "phase", "traced": tr, "wall_ms": 6360.0,
                    "trials": 9} for tr in (False, True)],
        "trials": trials, "spans": spans,
    }


class MetricsTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.ROW_LABELS))

    def test_engine_metrics_are_complete_and_finite(self):
        raw = engine_raw()
        e2e, _ = run.end_to_end(raw)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(e2e["setup_s"], 1.5)
        self.assertEqual(e2e["row1_ms"], 400.0)
        self.assertEqual(e2e["row2_ms"], 160.0)
        self.assertAlmostEqual(e2e["trials_per_s"], 9 / 3.18)
        layer = run.per_layer(raw)
        self.assertEqual(set(layer), set(run.PER_LAYER))
        self.assertTrue(all(math.isfinite(v) for v in layer.values()))
        self.assertAlmostEqual(layer["sim.sync.par_speedup"], 2.5)
        self.assertAlmostEqual(layer["sim.sync.par_efficiency"], 2.5 / 4)
        self.assertAlmostEqual(layer["obs.trace_overhead"], 1.0)
        self.assertAlmostEqual(layer["sim.sync.idle_share"], 0.8)
        self.assertEqual(layer["host.ref_ms"], 2 * run.REF_NOMINAL_MS)


if __name__ == "__main__":
    unittest.main()
