"""Self-tests for the benchmark's helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib as bl  # noqa: E402
import run  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_beyond(self):
        self.assertEqual(bl.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(bl.percentile(list(range(1, 20)), 0.5))

    def test_p99_needs_a_thousand_samples(self):
        xs = list(range(1, 1001))
        self.assertEqual(bl.percentile(xs, 0.99), 990)
        self.assertIsNone(bl.percentile(xs[:-1], 0.99))

    def test_order_does_not_matter(self):
        xs = [float(x) for x in range(100)]
        self.assertEqual(bl.percentile(list(reversed(xs)), 0.5),
                         bl.percentile(xs, 0.5))

    def test_degenerate_inputs(self):
        self.assertIsNone(bl.percentile([], 0.5))
        self.assertIsNone(bl.percentile([1.0] * 50, 1.0))


class SlicedStatistics(unittest.TestCase):
    def test_rate_ignores_a_short_stall(self):
        # 100 completions per second for 10 s, except second 3 which has 5.
        times = [s + i / 100 for s in range(10) for i in range(100) if s != 3]
        times += [3 + i / 5 for i in range(5)]
        self.assertEqual(bl.slice_rate(sorted(times), 10.0), 100.0)
        self.assertLess(len(times) / 10.0, 100.0)

    def test_rate_of_a_thin_window_is_count_over_wall(self):
        self.assertAlmostEqual(bl.slice_rate([1.0, 5.0, 9.0], 10.0), 0.3)
        self.assertEqual(bl.slice_rate([], 10.0), 0.0)

    def test_p50_ignores_slow_slices(self):
        times, lats = [], []
        for s in range(10):
            for i in range(50):
                times.append(s + i / 50)
                lats.append(1000.0 if s in (2, 5, 7) else 10.0 + i % 3)
        self.assertEqual(bl.slice_p50(times, lats, 10.0), 11.0)
        # Over all samples the slow slices would show through the median.
        self.assertEqual(bl.percentile(lats, 0.5), 12.0)

    def test_p50_of_thin_slices_falls_back(self):
        lats = [float(x) for x in range(1, 26)]
        times = [i * 0.4 for i in range(25)]
        self.assertEqual(bl.slice_p50(times, lats, 10.0), 13.0)


class NameGrammar(unittest.TestCase):
    def test_accepts(self):
        for name in ("setup_s", "postree.update_us", "self_pct.net",
                     "9lives", "a-b.c_d", "x" * 64):
            self.assertTrue(bl.valid_name(name), name)

    def test_rejects(self):
        for name in ("", "_lead", ".lead", "has space", "a/b", "x" * 65,
                     "tab\t", "quote\"", None, 3):
            self.assertFalse(bl.valid_name(name), repr(name))

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB/s"):
            self.assertTrue(bl.valid_unit(unit), unit)
        for unit in ("", "a b", "x" * 17):
            self.assertFalse(bl.valid_unit(unit), unit)

    def test_every_benchmark_name_is_valid(self):
        spec = load_spec()
        bl.check_spec(spec)
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertTrue(bl.valid_name(m["name"]), m["name"])


class HistogramDelta(unittest.TestCase):
    BEFORE = {"counters": {}, "gauges": {"log./r/log.appends": 10.0},
              "histograms": {"fb.put_seconds": {
                  "count": 3, "sum": 0.003, "buckets": [[90, 2], [95, 1]]}}}
    AFTER = {"counters": {}, "gauges": {"log./r/log.appends": 25.0},
             "histograms": {"fb.put_seconds": {
                 "count": 7, "sum": 0.011, "buckets": [[90, 3], [95, 1],
                                                       [99, 3]]}}}

    def test_json_snapshots(self):
        b = bl.registry_of_json(self.BEFORE)
        a = bl.registry_of_json(json.dumps(self.AFTER))
        d = bl.hist_delta(b, a, "fb_put_seconds")
        self.assertEqual(d["count"], 4)
        self.assertAlmostEqual(d["sum"], 0.008)
        self.assertAlmostEqual(bl.hist_mean_us(d), 2000.0)

    def test_absent_before_means_empty(self):
        a = bl.registry_of_json(self.AFTER)
        empty = bl.registry_of_json({})
        self.assertEqual(bl.hist_delta(empty, a, "fb_put_seconds")["count"], 7)
        self.assertEqual(bl.hist_delta(empty, empty, "nope")["count"], 0)
        self.assertEqual(bl.hist_mean_us(bl.hist_delta(empty, empty, "x")), 0.0)

    def test_reset_clamps_at_zero(self):
        b = bl.registry_of_json(self.AFTER)
        a = bl.registry_of_json(self.BEFORE)
        d = bl.hist_delta(b, a, "fb_put_seconds")
        self.assertEqual((d["count"], d["sum"]), (0, 0.0))

    def test_prometheus_text(self):
        before = ("# TYPE fb_net_get_seconds summary\n"
                  "fb_net_get_seconds{quantile=\"0.5\"} 1e-05\n"
                  "fb_net_get_seconds_sum 0.5\n"
                  "fb_net_get_seconds_count 100\n"
                  "fb_net_get_seconds_max 0.001\n"
                  "# TYPE fb_net_loop_worker_queue_depth gauge\n"
                  "fb_net_loop_worker_queue_depth 2\n")
        after = before.replace("_sum 0.5", "_sum 0.8").replace(
            "_count 100", "_count 130")
        b = bl.registry_of_prometheus(before)
        a = bl.registry_of_prometheus(after)
        d = bl.hist_delta(b, a, "fb_net_get_seconds")
        self.assertEqual(d["count"], 30)
        self.assertAlmostEqual(bl.hist_mean_us(d), 10000.0)
        self.assertEqual(a["values"], {"fb_net_loop_worker_queue_depth": 2.0})

    def test_gauge_deltas_by_pattern(self):
        b = bl.registry_of_json(self.BEFORE)
        a = bl.registry_of_json(self.AFTER)
        self.assertEqual(bl.values_delta(b, a, r"log_.*_appends"), 15.0)
        self.assertEqual(bl.values_delta(b, a, r"log_.*_flushes"), 0.0)


class ResultRecord(unittest.TestCase):
    def values(self, spec, trace):
        group = spec["per_layer"] if trace else spec["end_to_end"]
        return {m["name"]: 1.5 + i for i, m in enumerate(group)}

    def test_round_trip_against_benchmark_json(self):
        spec = load_spec()
        for trace in (0, 1):
            rec = bl.build_result(spec, self.values(spec, trace), True, 10, 0,
                                  trace)
            back = json.loads(json.dumps(rec))
            bl.check_result(spec, back, trace)
            self.assertEqual(back, rec)
            group = spec["per_layer"] if trace else spec["end_to_end"]
            self.assertEqual(list(back["metrics"]),
                             [m["name"] for m in group])

    def test_missing_or_bad_values_refused(self):
        spec = load_spec()
        vals = self.values(spec, 0)
        name = spec["end_to_end"][0]["name"]
        for bad in (None, float("nan"), math.inf, "1", True):
            v = dict(vals, **{name: bad})
            with self.assertRaises(ValueError):
                bl.build_result(spec, v, True, 1, 0, 0)

    def test_malformed_records_refused(self):
        spec = load_spec()
        good = bl.build_result(spec, self.values(spec, 0), True, 5, 0, 0)
        bad = [dict(good, extra=1),
               dict(good, attempted=0),
               dict(good, failed=6),
               dict(good, correct=1),
               dict(good, metrics=dict(good["metrics"], other={
                   "value": 1.0, "unit": "s"}))]
        first = spec["end_to_end"][0]["name"]
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"][first]["unit"] = "parsecs"
        bad.append(wrong_unit)
        for rec in bad:
            with self.assertRaises(ValueError):
                bl.check_result(spec, rec, 0)
        with self.assertRaises(ValueError):
            bl.check_result(spec, good, 1)


class BenchmarkJson(unittest.TestCase):
    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(isinstance(spec["run_seconds"], int)
                        and 1 <= spec["run_seconds"] <= 60)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertIn(w["name"], run.WORKLOADS)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


if __name__ == "__main__":
    unittest.main()
