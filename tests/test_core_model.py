"""Tests for repro.sim.core: issue server, warp contexts, SWL limiting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_config
from repro.sim.core import Core, IssueServer, Warp
from tests.trace_runs import IDLE, config, run_trace


class FakeStream:
    def next_request(self):
        return 4, []


def make_core(app_id: int = 0, n_warps: int = 8) -> Core:
    core = Core(0, app_id, small_config())
    for _ in range(n_warps):
        core.add_warp(FakeStream())
    return core


def compute_only(cycles: int, n_warps: int, n_inst: int = 10):
    """Warps running only compute phases on a core issuing 2 per cycle."""
    return run_trace([[(n_inst, [])] * 1000] * n_warps, config(issue_width=2),
                     cycles=cycles)


class TestIssueServer:
    def test_single_warp_is_one_ipc(self):
        """A lone warp retires at most one instruction per cycle."""
        run = compute_only(2000, n_warps=1)
        assert 1990 <= run.stats.insts <= 2000

    def test_aggregate_throughput_is_issue_width(self):
        run = compute_only(2000, n_warps=8)
        # 8 warps x 1 IPC are capped at the issue width of 2.
        assert 2 * 2000 - 8 * 10 <= run.stats.insts <= 2 * 2000

    def test_idle_server_resets(self):
        """A phase after a memory stall starts when the warp is ready: it
        is not queued behind the server's stale reservation."""
        run = run_trace([[(4, [0]), (6, [])]], config(issue_width=2))
        stall = run.latencies[0]
        # 4-inst phase ends at 4, the miss returns at 4 + stall, the
        # 6-inst phase ends at 10 + stall (1 IPC), then IDLE reserves.
        idle_start = run.sim.cores[0].issue.free_at - IDLE[0] / 2
        assert idle_start == pytest.approx(10 + stall)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            IssueServer(0)

    @given(
        st.lists(st.lists(st.integers(1, 100), min_size=1, max_size=40),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_finish_never_before_per_warp_bound(self, phases):
        cycles = 500
        run = run_trace([[(n, []) for n in warp] for warp in phases],
                        config(issue_width=2), cycles=cycles)
        for warp, trace in zip(run.sim.cores[0].warps, phases):
            assert sum(trace[:warp.iterations]) <= cycles, "1 IPC per warp"
        assert run.stats.insts <= 2 * cycles, "issue width per core"


class TestCoreTLP:
    def test_active_limit_uses_both_schedulers(self):
        core = make_core(n_warps=48)
        core.set_tlp(4)
        assert core.active_limit == 8  # 4 warps x 2 schedulers

    def test_active_limit_capped_by_warp_count(self):
        core = make_core(n_warps=4)
        core.set_tlp(24)
        assert core.active_limit == 4

    def test_set_tlp_returns_warps_to_start(self):
        core = make_core(n_warps=8)
        started = core.set_tlp(2)  # 4 active
        assert len(started) == 4
        assert all(w.active and not w.parked for w in started)

    def test_raising_tlp_starts_only_new_warps(self):
        core = make_core(n_warps=8)
        core.set_tlp(1)
        started = core.set_tlp(3)
        assert len(started) == 4  # from 2 active to 6

    def test_lowering_tlp_deactivates_but_does_not_park(self):
        core = make_core(n_warps=8)
        core.set_tlp(3)
        core.set_tlp(1)
        deactivated = [w for w in core.warps if not w.active]
        assert len(deactivated) == 6
        # They drain asynchronously: set_tlp must not force-park them.
        assert all(not w.parked for w in core.warps[2:6])

    def test_reactivating_drained_warp_returns_it(self):
        core = make_core(n_warps=4)
        core.set_tlp(2)
        core.set_tlp(1)
        core.warps[2].parked = True  # simulate its drain completing
        core.warps[3].parked = True
        started = core.set_tlp(2)
        assert set(started) == {core.warps[2], core.warps[3]}

    def test_tlp_clamped_to_max(self):
        core = make_core()
        core.set_tlp(1000)
        assert core.tlp == core.config.max_tlp

    def test_rejects_zero_tlp(self):
        with pytest.raises(ValueError):
            make_core().set_tlp(0)

    @given(st.lists(st.integers(1, 24), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_active_flags_always_match_limit(self, tlps):
        core = make_core(n_warps=48)
        for tlp in tlps:
            for warp in core.set_tlp(tlp):
                warp.parked = True  # immediately drain for the next round
            active = sum(w.active for w in core.warps)
            assert active == core.active_limit
