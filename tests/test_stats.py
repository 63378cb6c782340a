"""Tests for repro.sim.stats: counters, windows, and EB derivation."""

import pytest

from repro.sim.stats import AppStats, StatsCollector, WindowSample
from tests.trace_runs import LINE, run_trace


def make_collector(peak: float = 1.0) -> StatsCollector:
    return StatsCollector([0, 1], peak_lines_per_cycle=peak)


class TestAppStats:
    def test_delta(self):
        a = AppStats(insts=100, l1_accesses=10)
        b = AppStats(insts=40, l1_accesses=3)
        d = a.delta(b)
        assert d.insts == 60
        assert d.l1_accesses == 7

    def test_copy_is_independent(self):
        a = AppStats(insts=5)
        b = a.copy()
        b.insts = 99
        assert a.insts == 5


class TestWindowSample:
    def test_derivation(self):
        counters = AppStats(
            insts=1000, l1_accesses=100, l1_misses=50,
            l2_accesses=50, l2_misses=25, dram_lines=20,
        )
        s = WindowSample.from_counters(0, counters, cycles=100.0,
                                       peak_lines_per_cycle=1.0)
        assert s.ipc == pytest.approx(10.0)
        assert s.l1_miss_rate == pytest.approx(0.5)
        assert s.l2_miss_rate == pytest.approx(0.5)
        assert s.cmr == pytest.approx(0.25)
        assert s.bw == pytest.approx(0.2)
        assert s.eb == pytest.approx(0.8)

    def test_eb_equals_bw_when_caches_useless(self):
        """CMR = 1 means EB = BW (the paper's BLK case)."""
        counters = AppStats(
            insts=10, l1_accesses=10, l1_misses=10,
            l2_accesses=10, l2_misses=10, dram_lines=10,
        )
        s = WindowSample.from_counters(0, counters, 100.0, 1.0)
        assert s.cmr == 1.0
        assert s.eb == pytest.approx(s.bw)

    def test_no_accesses_is_unity_miss_rate_zero_eb(self):
        s = WindowSample.from_counters(0, AppStats(), 100.0, 1.0)
        assert s.cmr == 1.0
        assert s.bw == 0.0
        assert s.eb == 0.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            WindowSample.from_counters(0, AppStats(), 0.0, 1.0)

    def test_row_hit_rate(self):
        counters = AppStats(dram_lines=4, row_hits=3, row_misses=1,
                            l1_accesses=4, l1_misses=4,
                            l2_accesses=4, l2_misses=4)
        s = WindowSample.from_counters(0, counters, 10.0, 1.0)
        assert s.row_hit_rate == pytest.approx(0.75)


class TestStatsCollector:
    def test_engine_counts_each_event(self):
        """The engine's inline increments land in the collector's
        AppStats: 10 + 5 instructions; A misses, then A hits and B
        misses; both misses go to DRAM, the second one a row hit."""
        run = run_trace([[(10, [0]), (5, [0, LINE])]])
        s = run.sim.collector.apps[0]
        assert s.insts == 15
        assert (s.l1_accesses, s.l1_misses) == (3, 2)
        assert (s.l2_accesses, s.l2_misses) == (2, 2)
        assert (s.dram_lines, s.row_hits, s.row_misses) == (2, 1, 1)
        assert s.mem_requests == 2
        assert s.mem_latency_sum == pytest.approx(sum(run.latencies))

    def test_windows_are_deltas(self):
        c = make_collector()
        c.apps[0].insts += 100
        first = c.cut_window(10.0)
        assert first[0].insts == 100
        c.apps[0].insts += 50
        second = c.cut_window(20.0)
        assert second[0].insts == 50
        assert second[0].cycles == 10.0

    def test_apps_tracked_independently(self):
        c = make_collector()
        c.apps[0].insts += 10
        c.apps[1].insts += 20
        w = c.cut_window(5.0)
        assert w[0].insts == 10
        assert w[1].insts == 20

    def test_measurement_excludes_warmup(self):
        c = make_collector()
        c.apps[0].insts += 1000  # warmup work
        c.start_measurement(50.0)
        c.apps[0].insts += 10
        m = c.measurement(60.0)
        assert m[0].insts == 10
        assert m[0].ipc == pytest.approx(1.0)

    def test_window_without_cut_does_not_reset(self):
        c = make_collector()
        c.apps[0].insts += 10
        assert c.window(10.0)[0].insts == 10
        assert c.window(10.0)[0].insts == 10
