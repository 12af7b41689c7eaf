"""Tests for the benchmark's own arithmetic (metrics.py).

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

# A real /proc/<pid>/stat line shape: pid, (comm), state, then numbers;
# utime and stime are fields 14 and 15.
STAT = ("4242 (httpsrr_serve) S 1 4242 4242 0 -1 4194560 31203 0 0 0 "
        "{utime} {stime} 0 0 20 0 1 0 123456 170000000 41000 "
        "18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 2 0 0 0 0 0")


# Day phases the Study times itself (Study::DayTiming).
PHASES = ("advance_s", "sweep_s", "compact_s", "scan_s", "ns_s", "churn_s",
          "observers_s")


def stat(utime, stime, comm="httpsrr_serve"):
    return STAT.format(utime=utime, stime=stime).replace("httpsrr_serve", comm, 1)


def day(n, steady, wall, cpu_start=0.0, cpu_end=0.0, **fields):
    record = {"type": "day", "day": n, "steady": steady, "wall_s": wall,
              "cpu_start_s": cpu_start, "cpu_end_s": cpu_end,
              "serve_stat_start": "", "serve_stat_end": ""}
    record.update(fields)
    return record


class SteadyDaysAndMedians(unittest.TestCase):
    def test_warm_up_days_are_not_steady(self):
        days = [day(1, False, 9.0), day(2, False, 8.0), day(3, True, 2.0),
                day(4, True, 3.0), day(5, True, 1.0)]
        self.assertEqual([d["day"] for d in metrics.steady(days)], [3, 4, 5])

    def test_steady_day_s_is_the_median_of_steady_walls(self):
        days = [day(1, False, 9.0), day(2, True, 2.0), day(3, True, 4.0),
                day(4, True, 3.0), day(5, True, 100.0)]
        setups = [{"total_s": 0.3}, {"total_s": 0.1}, {"total_s": 0.2}]
        end = {"client_peak_rss_kib": 1024}
        for d in days:
            d["bytes_per_domain"] = 400.0
        values = metrics.end_to_end(setups, days, end, clk_tck=100)
        self.assertEqual(values["steady_day_s"], (3.5, "s"))
        self.assertEqual(values["setup_s"], (0.2, "s"))

    def test_median_day_picks_the_lower_middle(self):
        days = [day(3, True, 2.0), day(4, True, 5.0), day(5, True, 3.0),
                day(6, True, 4.0)]
        self.assertEqual(metrics.median_day(days)["day"], 5)

    def test_no_steady_day_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.steady([day(1, False, 1.0)])
        with self.assertRaises(ValueError):
            metrics.median([])


class PerDayDeltas(unittest.TestCase):
    def test_cumulative_counters_become_daily_differences(self):
        days = [day(1, False, 1.0, requests=100, busy_scan_s=[1.0, 2.0]),
                day(2, True, 1.0, requests=250, busy_scan_s=[1.5, 2.25]),
                day(3, True, 1.0, requests=330, busy_scan_s=[2.0, 3.0])]
        own = metrics.per_day(days)
        self.assertEqual([d["requests"] for d in own], [100, 150, 80])
        self.assertEqual(own[1]["busy_scan_s"], [0.5, 0.25])
        self.assertEqual(own[2]["busy_scan_s"], [0.5, 0.75])

    def test_gauges_pass_through(self):
        days = [day(1, False, 1.0, gc_live_refs=7), day(2, True, 1.0, gc_live_refs=5)]
        self.assertEqual([d["gc_live_refs"] for d in metrics.per_day(days)], [7, 5])

    def test_operations_count_only_measured_days(self):
        days = [day(1, False, 1.0, requests=100, servfails=3),
                day(2, True, 1.0, requests=250, servfails=3),
                day(3, True, 1.0, requests=400, servfails=4)]
        self.assertEqual(metrics.operations(days), (300, 1))


class CpuPerDay(unittest.TestCase):
    def test_client_only(self):
        d = day(3, True, 2.0, cpu_start=10.25, cpu_end=12.75)
        self.assertAlmostEqual(metrics.day_cpu_seconds(d, 100), 2.5)

    def test_client_plus_serve_process(self):
        d = day(3, True, 2.0, cpu_start=10.0, cpu_end=11.0,
                serve_stat_start=stat(100, 20), serve_stat_end=stat(180, 30))
        # serve: (180 + 30) - (100 + 20) = 90 ticks at 100 Hz = 0.9 s
        self.assertAlmostEqual(metrics.day_cpu_seconds(d, 100), 1.9)
        self.assertAlmostEqual(metrics.serve_cpu_seconds(d, 100), 0.9)
        self.assertAlmostEqual(metrics.serve_cpu_seconds(d, 250), 0.36)

    def test_steady_cpu_s_is_the_median_over_steady_days(self):
        days = [day(1, False, 1.0, cpu_start=0.0, cpu_end=5.0),
                day(2, True, 1.0, cpu_start=5.0, cpu_end=6.0),
                day(3, True, 1.0, cpu_start=6.0, cpu_end=9.0),
                day(4, True, 1.0, cpu_start=9.0, cpu_end=11.0)]
        for d in days:
            d["bytes_per_domain"] = 1.0
        values = metrics.end_to_end([{"total_s": 1.0}], days,
                                    {"client_peak_rss_kib": 1}, 100)
        self.assertAlmostEqual(values["steady_cpu_s"][0], 2.0)


class ProcParsing(unittest.TestCase):
    def test_utime_plus_stime(self):
        self.assertEqual(metrics.proc_stat_cpu_ticks(stat(1234, 56)), 1290)

    def test_command_names_with_spaces_and_parentheses(self):
        self.assertEqual(metrics.proc_stat_cpu_ticks(stat(7, 8, comm="a) b (c")), 15)

    def test_vm_hwm(self):
        self.assertEqual(metrics.vm_hwm_kib("VmHWM:\t  166864 kB"), 166864)
        with self.assertRaises(ValueError):
            metrics.vm_hwm_kib("VmRSS:  1 kB")

    def test_serve_shutdown_line(self):
        text = ("noise\n;; served udp=521030 tcp=2 truncated=1 dropped=0 "
                "tcp_conns=2 \n")
        self.assertEqual(metrics.serve_shutdown_stats(text),
                         {"udp": 521030, "tcp": 2, "truncated": 1, "dropped": 0,
                          "tcp_conns": 2})
        self.assertEqual(metrics.serve_shutdown_stats(""), {})


class RssAcrossProcesses(unittest.TestCase):
    def test_client_alone(self):
        self.assertEqual(metrics.total_peak_rss_mib(2048, []), 2.0)

    def test_client_plus_serve(self):
        self.assertEqual(
            metrics.total_peak_rss_mib(1024, ["VmHWM:   3072 kB"]), 4.0)

    def test_end_to_end_sums_the_serve_process(self):
        days = [day(1, False, 1.0), day(2, True, 1.0)]
        for d in days:
            d["bytes_per_domain"] = 1.0
        end = {"client_peak_rss_kib": 1024, "serve_vm_hwm": "VmHWM: 1024 kB"}
        values = metrics.end_to_end([{"total_s": 1.0}], days, end, 100)
        self.assertEqual(values["peak_rss_mib"], (2.0, "MiB"))


class LayerTable(unittest.TestCase):
    def test_rows_split_the_scan_into_endpoint_and_scanner_time(self):
        d = day(5, True, 2.0, advance_s=0.5, sweep_s=0.05, compact_s=0.15,
                scan_s=1.2, ns_s=0.0, churn_s=0.01, observers_s=0.05,
                busy_scan_s=[1.0])
        rows = dict(metrics.layer_rows(d, shards=1))
        self.assertAlmostEqual(rows["resolver.endpoint"], 1.0)
        self.assertAlmostEqual(rows["scanner.classify"], 0.2)
        self.assertAlmostEqual(metrics.coverage(d, 1), 1.96 / 2.0)

    def test_endpoint_row_is_the_mean_shard(self):
        d = day(5, True, 1.0, advance_s=0, sweep_s=0, compact_s=0, scan_s=0.8,
                ns_s=0, churn_s=0, observers_s=0, busy_scan_s=[0.6, 0.4, 0.7, 0.3])
        rows = dict(metrics.layer_rows(d, shards=4))
        self.assertAlmostEqual(rows["resolver.endpoint"], 0.5)
        self.assertAlmostEqual(rows["scanner.classify"], 0.3)


class MatchesBenchmarkJson(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(path):
            raise unittest.SkipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            cls.spec = json.load(f)

    def records(self):
        counters = {k: 0 for k in metrics.CUMULATIVE}
        counters.update(busy_scan_s=[0.5, 0.5], busy_ns_s=[0.0, 0.0])
        days = []
        for n in (1, 2, 3):
            d = day(n, n > 1, 2.0, cpu_start=n, cpu_end=n + 1.5,
                    serve_stat_start=stat(0, 0), serve_stat_end=stat(90, 10),
                    listed=100, scan_cpu_s=1.0, bytes_per_domain=500.0,
                    intern_hit_rate=0.9, gc_interner_entries=10,
                    gc_live_refs=8, **dict.fromkeys(PHASES, 0.1))
            d.update({k: v * n if not isinstance(v, list) else [x * n for x in v]
                      for k, v in counters.items()})
            d["requests"] = 100 * n
            days.append(d)
        end = {"client_peak_rss_kib": 2048, "serve_vm_hwm": "VmHWM: 1024 kB",
               "serve_stderr": ";; served udp=9 tcp=0 truncated=0 dropped=0",
               "checks_ok": True}
        return [{"total_s": 0.5, "build_s": 0.4}], days, end

    def test_end_to_end_names_and_units(self):
        setups, days, end = self.records()
        values = metrics.end_to_end(setups, days, end, 100)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         {name: unit for name, (_, unit) in values.items()})
        for value, _ in values.values():
            self.assertGreater(value, 0)

    def test_per_layer_names_and_units(self):
        setups, days, end = self.records()
        values = metrics.per_layer(setups, days, end, 100, shards=2)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         {name: unit for name, (_, unit) in values.items()})

    def test_workloads_are_runnable(self):
        import run  # noqa: E402 -- run.py imports metrics from this directory
        for workload in self.spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
