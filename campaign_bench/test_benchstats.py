"""Self-tests of the benchmark's arithmetic: python3 campaign_bench/run.py --self-test"""

import json
import os
import statistics
import unittest

import benchstats
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        for values in ([1, 2, 3, 4], [5.0, 1.0, 9.0, 3.0, 7.0],
                       [0.1, 0.4, 0.35, 0.8, 0.22, 0.9, 0.5, 0.61, 0.3, 0.44]):
            self.assertEqual(benchstats.quartiles(values),
                             tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        # Exclusive method: positions (n+1)p over the sorted samples.
        self.assertEqual(benchstats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 4, 6))
        self.assertEqual(benchstats.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))

    def test_single_sample(self):
        self.assertEqual(benchstats.quartiles([3.5]), (3.5, 3.5, 3.5))
        self.assertEqual(benchstats.spread([3.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchstats.spread([1, 2, 3, 4]), 2.5 / 2.5)
        self.assertAlmostEqual(benchstats.spread([10, 10, 10, 10]), 0.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchstats.quartiles([])


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 100 distinct samples: p90 has 10 samples strictly above it, p99
        # has only 1, so p90 is the highest reportable one.
        values = list(range(1, 101))
        p, v = benchstats.reportable_percentile(values)
        self.assertEqual(p, 0.9)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_too_few_samples(self):
        self.assertIsNone(benchstats.reportable_percentile(list(range(10))))
        # 90 samples: only 9 lie above the interpolated p90.
        self.assertIsNone(benchstats.reportable_percentile(list(range(90))))

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 50 + [2.0] * 60
        # p90 lands on 2.0 and no sample lies strictly above it.
        self.assertIsNone(benchstats.reportable_percentile(values))

    def test_thousand_samples_reach_p99(self):
        p, _ = benchstats.reportable_percentile(list(range(1000)))
        self.assertEqual(p, 0.99)

    def test_summary_reports_only_allowed_percentile(self):
        self.assertNotIn("p90", benchstats.summarize(list(range(20))))
        s = benchstats.summarize(list(range(200)))
        self.assertIn("p90", s)
        self.assertEqual(s["n"], 200)


class SpanSelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(0, -1, "replay", 0, 100),
                 span(1, 0, "exp", 10, 60),
                 span(2, 1, "runtime.run", 15, 40),
                 span(3, 1, "measure.apply", 45, 55)]
        st = benchstats.self_times(spans)
        self.assertEqual(st, {0: 50, 1: 15, 2: 25, 3: 10})

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, "replay", 0, 100),
                 span(1, 0, "a", 10, 50),
                 span(2, 0, "b", 30, 70)]
        self.assertEqual(benchstats.self_times(spans)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, "replay", 0, 100),
                 span(1, 0, "exp", 50, 80),
                 span(2, 1, "x", 70, 120)]
        self.assertEqual(benchstats.self_times(spans)[1], 20)

    def test_union_length(self):
        self.assertEqual(benchstats.union_length([(0, 5), (3, 8), (10, 12)], 0, 100), 10)
        self.assertEqual(benchstats.union_length([(0, 5)], 2, 4), 2)
        self.assertEqual(benchstats.union_length([], 0, 10), 0)


class Attribution(unittest.TestCase):
    def test_self_times_plus_unattributed_equal_wall(self):
        spans = [span(0, -1, "replay", 0, 1000),
                 span(1, 0, "exp", 0, 400),
                 span(2, 1, "runtime.run", 10, 300),
                 span(3, 1, "bench.check", 300, 390),
                 span(4, 3, "runtime.encode", 310, 350),
                 span(5, 0, "exp", 500, 900),
                 span(6, 5, "runtime.run", 510, 880)]
        by_name, wall, unattributed = benchstats.layer_breakdown(spans)
        self.assertEqual(wall, 1000)
        layers = sum(v["self"] for k, v in by_name.items()
                     if k not in ("replay", "exp"))
        self.assertEqual(layers + unattributed, wall)
        # Glue: root 200 outside the exp spans + exp self times 20 + 30.
        self.assertEqual(unattributed, 250)
        self.assertEqual(by_name["runtime.run"], {"self": 660, "count": 2})
        self.assertEqual(by_name["bench.check"]["self"], 50)
        self.assertEqual(sum(benchstats.self_times(spans).values()), wall)

    def test_one_root_required(self):
        with self.assertRaises(ValueError):
            benchstats.layer_breakdown([span(0, -1, "a", 0, 1), span(1, -1, "b", 0, 1)])


class HistogramQuantile(unittest.TestCase):
    def test_interpolates_inside_bucket(self):
        buckets = [0] * 24
        buckets[8] = 100  # [256, 512) us
        self.assertAlmostEqual(benchstats.histogram_quantile_us(buckets, 0.5), 384.0)
        self.assertAlmostEqual(benchstats.histogram_quantile_us(buckets, 0.99), 509.44)

    def test_spans_buckets(self):
        buckets = [0] * 24
        buckets[4] = 50   # [16, 32)
        buckets[5] = 50   # [32, 64)
        self.assertAlmostEqual(benchstats.histogram_quantile_us(buckets, 0.5), 32.0)
        self.assertAlmostEqual(benchstats.histogram_quantile_us(buckets, 0.75), 48.0)

    def test_empty(self):
        self.assertEqual(benchstats.histogram_quantile_us([0] * 24, 0.5), 0.0)


def rep(wall_s, cpu_s, cal_s, cal_fs_s=0.0):
    return {"delivered": 100, "wall_s": wall_s, "setup_s": wall_s / 100,
            "cpu_s": cpu_s, "cal_s": cal_s, "cal_fs_s": cal_fs_s, "rss_kb": 1024}


class Normalization(unittest.TestCase):
    def end_to_end(self, reps):
        return run.end_to_end_metrics({"reps": reps, "failed": 0, "attempted": 100})

    def test_speed_drift_cancels(self):
        fast = self.end_to_end([rep(0.5, 0.5, run.CAL_REF_S)])
        slow = self.end_to_end([rep(1.0, 1.0, 2 * run.CAL_REF_S)])
        for m in ("exp_per_s", "setup_s", "cpu_ms_per_exp"):
            self.assertAlmostEqual(fast[m], slow[m])
        self.assertAlmostEqual(fast["exp_per_s"], 200.0)

    def test_filesystem_kernel_weighs_store_share(self):
        share = run.JOURNAL_COLD_STORE_SHARE
        r = rep(1.0, 1.0, run.CAL_REF_S, 3 * run.CAL_FS_REF_S)
        # CPU at reference speed, filesystem 3x slower.
        self.assertAlmostEqual(run.wall_slowdown(r), 1.0 + 2.0 * share)

    def test_cpu_and_setup_ignore_filesystem_kernel(self):
        plain = self.end_to_end([rep(1.0, 1.0, 2 * run.CAL_REF_S)])
        slow_fs = self.end_to_end([rep(1.0, 1.0, 2 * run.CAL_REF_S, 5 * run.CAL_FS_REF_S)])
        self.assertAlmostEqual(plain["cpu_ms_per_exp"], slow_fs["cpu_ms_per_exp"])
        self.assertAlmostEqual(plain["setup_s"], slow_fs["setup_s"])
        self.assertGreater(slow_fs["exp_per_s"], plain["exp_per_s"])


class Goldens(unittest.TestCase):
    goldens = {"seed": 1, "reference_digest": "ab",
               "paper": {"coverage_black": 0.8, "accepted": 550}}

    def test_match(self):
        raw = {"reference_digest": "ab",
               "paper": {"coverage_black": 0.8, "accepted": 550, "extra": 1}}
        self.assertEqual(run.golden_mismatches(raw, self.goldens), [])

    def test_digest_and_number_mismatch(self):
        raw = {"reference_digest": "cd",
               "paper": {"coverage_black": 0.81, "accepted": 550}}
        self.assertEqual(len(run.golden_mismatches(raw, self.goldens)), 2)

    def test_missing_number(self):
        raw = {"reference_digest": "ab", "paper": {"accepted": 550}}
        self.assertEqual(len(run.golden_mismatches(raw, self.goldens)), 1)


class Worse(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(benchstats.worse_by(100, 90, "higher"), 0.1)
        self.assertAlmostEqual(benchstats.worse_by(100, 90, "lower"), -0.1)
        self.assertAlmostEqual(benchstats.worse_by(2.0, 2.5, "lower"), 0.25)


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to the benchmark directory")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
