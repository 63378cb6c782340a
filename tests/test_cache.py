"""Tests for the cache and MSHR rules: LRU sets, bypass, quotas, merging.

The lookup, MSHR and counting rules run only inside the engine, so the
behavioural tests drive short traces through it (``trace_runs``) and
check the per-application counters in ``AppStats``.  The remaining
component methods (``fill``, ``occupancy_by_app``, ``resident_lines``)
are tested directly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheGeometry, small_config
from repro.sim import engine, native
from repro.sim.cache import SetAssocCache
from repro.sim.engine import Simulator
from repro.workloads.table4 import app_by_abbr
from tests.trace_runs import LINE, check_conservation, config, run_trace

#: one-set, two-way L1: every line competes for the same two ways
TWO_WAY = config(l1=CacheGeometry(size_bytes=2 * LINE, assoc=2, mshr_entries=4))
A, B, C = 0, LINE, 2 * LINE

# Hypothesis runs real (if short) simulations per example.
engine_settings = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_cache(n_sets=4, assoc=2) -> SetAssocCache:
    return SetAssocCache(n_sets=n_sets, assoc=assoc, line_bytes=LINE)


def addr(set_idx: int, tag: int, n_sets: int = 4) -> int:
    """Build a line address landing in ``set_idx`` with a distinct tag."""
    return (tag * n_sets + set_idx) * LINE


class TestBasicCaching:
    def test_cold_miss_then_hit_after_fill(self):
        run = run_trace([[(1, [A]), (1, [A])]])
        assert (run.stats.l1_accesses, run.stats.l1_misses) == (2, 1)
        assert run.stats.l2_accesses == 1, "the hit never leaves the core"
        assert run.latencies[1] == pytest.approx(config().l1_hit_latency)

    def test_miss_does_not_install(self):
        """Two warps touch the same line in one instant: the first miss
        has not installed it, so the second misses too (and merges)."""
        run = run_trace([[(1, [A])], [(1, [A])]])
        assert (run.stats.l1_accesses, run.stats.l1_misses) == (2, 2)
        assert run.sim.l1_mshrs[0].merges == 1
        assert run.stats.l2_accesses == 1
        assert run.stats.mem_requests == 2
        assert run.latencies[0] == run.latencies[1], "one fill wakes both"

    def test_lru_eviction_order(self):
        cache = make_cache(n_sets=1, assoc=2)
        a, b, c = addr(0, 0, 1), addr(0, 1, 1), addr(0, 2, 1)
        cache.fill(a, 0)
        cache.fill(b, 0)
        victim = cache.fill(c, 0)
        assert victim == a, "the least recently used line is evicted"

    def test_hit_refreshes_lru(self):
        """A, B, A (hit: A becomes MRU), C evicts B, so A still hits."""
        run = run_trace([[(1, [A]), (1, [B]), (1, [A]), (1, [C]), (1, [A])]],
                        TWO_WAY)
        assert (run.stats.l1_accesses, run.stats.l1_misses) == (5, 3)
        assert list(run.sim.l1s[0]._sets[0]) == [C, A], "LRU first, MRU last"

    def test_duplicate_fill_is_idempotent(self):
        cache = make_cache()
        a = addr(1, 0)
        cache.fill(a, 0)
        assert cache.fill(a, 0) is None
        assert cache.resident_lines == 1

    def test_sets_are_independent(self):
        cache = make_cache(n_sets=4, assoc=1)
        for s in range(4):
            cache.fill(addr(s, 0), 0)
        assert cache.resident_lines == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(n_sets=0, assoc=2, line_bytes=LINE)


class TestStats:
    def test_per_app_miss_rates(self):
        """Miss rates come from the per-app counters: A, A, B, A misses
        twice in four L1 accesses, and L2 sees only the two misses."""
        run = run_trace([[(1, [A]), (1, [A]), (1, [B]), (1, [A])]])
        window = run.sim.collector.window(20_000.0)[0]
        assert window.l1_miss_rate == pytest.approx(0.5)
        assert window.l2_miss_rate == pytest.approx(1.0)
        assert window.cmr == pytest.approx(0.5)

    def test_unused_cache_reports_unity_miss_rate(self):
        """A compute-only app never touches its caches: miss rate 1.0,
        the convention EB = BW / CMR needs."""
        run = run_trace([[(4, [])] * 100])
        window = run.sim.collector.window(20_000.0)[0]
        assert run.stats.l1_accesses == 0
        assert (window.l1_miss_rate, window.l2_miss_rate) == (1.0, 1.0)


class TestBypass:
    def test_bypassed_app_does_not_install(self):
        """With L1 bypass the line is never installed: every access
        misses the L1, and the repeat is served by the L2."""
        run = run_trace([[(1, [A]), (1, [A]), (1, [A])]],
                        prepare=lambda sim: sim.set_l1_bypass(0, True))
        assert (run.stats.l1_accesses, run.stats.l1_misses) == (3, 3)
        assert (run.stats.l2_accesses, run.stats.l2_misses) == (3, 1)
        assert run.sim.l1s[0].resident_lines == 0
        assert run.sim.l2s[0].occupancy_by_app() == {0: 1}

    def test_other_apps_unaffected(self):
        cache = make_cache()
        cache.bypass_apps.add(1)
        a = addr(0, 0)
        cache.fill(a, app_id=0)
        assert cache.occupancy_by_app() == {0: 1}


class TestWayQuota:
    def test_quota_evicts_own_lru(self):
        cache = make_cache(n_sets=1, assoc=4)
        cache.way_quota = {0: 2}
        a, b, c = addr(0, 0, 1), addr(0, 1, 1), addr(0, 2, 1)
        other = addr(0, 3, 1)
        cache.fill(other, 1)
        cache.fill(a, 0)
        cache.fill(b, 0)
        victim = cache.fill(c, 0)  # app 0 at quota: evicts its own LRU (a)
        assert victim == a
        assert cache.occupancy_by_app() == {1: 1, 0: 2}, "co-runner survived"

    def test_without_quota_global_lru(self):
        cache = make_cache(n_sets=1, assoc=2)
        other = addr(0, 0, 1)
        cache.fill(other, 1)
        cache.fill(addr(0, 1, 1), 0)
        victim = cache.fill(addr(0, 2, 1), 0)
        assert victim == other, "global LRU evicts the co-runner's line"


class TestInvalidateAndOccupancy:
    def test_occupancy_by_app(self):
        cache = make_cache()
        cache.fill(addr(0, 0), 0)
        cache.fill(addr(0, 1), 1)
        assert cache.occupancy_by_app() == {0: 1, 1: 1}


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 1)),
            min_size=1,
            max_size=60,
        )
    )
    @engine_settings
    def test_capacity_never_exceeded(self, ops):
        """Random lines from two warps never overfill a set."""
        traces = [[(1, [tag * LINE]) for tag, w in ops if w == warp] or [(1, [])]
                  for warp in (0, 1)]
        cfg = config(l1=CacheGeometry(size_bytes=6 * LINE, assoc=3, mshr_entries=4))
        run = run_trace(traces, cfg, cycles=4000)
        l1 = run.sim.l1s[0]
        assert l1.resident_lines <= 2 * 3
        assert all(len(line_set) <= 3 for line_set in l1._sets)
        check_conservation(run.sim)

    @given(
        st.lists(st.integers(0, 31), min_size=1, max_size=30),
        st.integers(1, 4),
    )
    @engine_settings
    def test_second_access_to_resident_line_always_hits(self, tags, assoc):
        """Once filled and immediately re-accessed, a line must hit."""
        cfg = config(l1=CacheGeometry(size_bytes=2 * assoc * LINE, assoc=assoc,
                                      mshr_entries=4))
        trace = [(1, [tag * LINE]) for tag in tags for _ in range(2)]
        run = run_trace([trace], cfg, cycles=len(tags) * 400)
        assert run.stats.l1_accesses == 2 * len(tags)
        assert run.stats.l1_accesses - run.stats.l1_misses >= len(tags)

    def test_stats_accesses_equals_hits_plus_misses(self):
        """Counter conservation on synthetic streams, on both backends:
        the per-app counters agree level by level with the MSHR, link
        and channel counters."""
        # GUPS+TRD merges and parks L1 misses; LUD hits in the L2, and a
        # one-entry L2 MSHR parks L2 misses too.
        tiny_l2 = small_config().with_(l2_per_channel=CacheGeometry(
            size_bytes=32 * 1024, assoc=8, mshr_entries=1))
        cases = ((small_config(), ("GUPS", "TRD")), (tiny_l2, ("LUD", "GUPS")))
        backends = [False, True] if native.available() else [False]
        for native_on in backends:
            previous = engine._set_native(native_on)
            try:
                for cfg, pair in cases:
                    sim = Simulator(cfg, [app_by_abbr(a) for a in pair], seed=3)
                    sim.run(30_000, warmup=2000, initial_tlp={0: 24, 1: 8})
                    assert sim.backend == ("native" if native_on else "python")
                    check_conservation(sim)
            finally:
                engine._set_native(previous)


class TestMSHR:
    def test_new_then_merge(self):
        run = run_trace([[(1, [A])], [(1, [A])]])
        mshr = run.sim.l1_mshrs[0]
        assert (mshr.merges, mshr.allocation_failures) == (1, 0)
        assert run.sim.crossbar.request_ports[0].packets == 1
        assert mshr._pending == {}, "the fill released the entry"

    def test_full_table_rejects(self):
        """A two-entry table takes two of three distinct lines; the
        third parks and is re-driven once a fill frees an entry."""
        cfg = config(l1=CacheGeometry(size_bytes=4096, assoc=4, mshr_entries=2))
        run = run_trace([[(1, [A, B, C])]], cfg)
        mshr = run.sim.l1_mshrs[0]
        assert mshr.allocation_failures == 1
        assert run.sim.crossbar.request_ports[0].packets == 3
        assert run.stats.l2_accesses == 3
        assert run.stats.mem_requests == 1

    def test_full_table_still_merges(self):
        cfg = config(l1=CacheGeometry(size_bytes=4096, assoc=4, mshr_entries=1))
        run = run_trace([[(1, [A])], [(1, [A])]], cfg)
        mshr = run.sim.l1_mshrs[0]
        assert (mshr.merges, mshr.allocation_failures) == (1, 0)

    def test_release_frees_entry(self):
        """One entry serves A then B: the fill of A frees it for B."""
        cfg = config(l1=CacheGeometry(size_bytes=4096, assoc=4, mshr_entries=1))
        run = run_trace([[(1, [A]), (1, [B])]], cfg)
        assert run.sim.l1_mshrs[0].allocation_failures == 0
        assert run.stats.l2_accesses == 2

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
    @engine_settings
    def test_occupancy_bounded(self, lines):
        """Four warps share a four-entry table; sampled every cycle, it
        never holds more than four lines."""
        cfg = config(l1=CacheGeometry(size_bytes=4096, assoc=4, mshr_entries=4))
        traces = [[(1, [ln * LINE, (ln + w + 1) % 10 * LINE])
                   for ln in lines] for w in range(4)]
        peak = []

        def sample(sim):
            mshr = sim.l1_mshrs[0]

            def tick(now):
                peak.append(len(mshr._pending))
                sim.events.push(now + 1.0, tick)

            sim.events.push(0.0, tick)

        run = run_trace(traces, cfg, cycles=3000, prepare=sample)
        assert max(peak) <= 4
        check_conservation(run.sim)
