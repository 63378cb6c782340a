"""Short trace-driven runs that pin the memory system's exact rules.

The cache, MSHR, crossbar and issue rules live once in
``Simulator._dispatch`` (and once in its native twin); the component
classes hold only state.  These helpers drive that real path with
hand-written warp traces on a single core, so a test can assert exact
counts and times.  Trace streams carry no native spec, so these runs
always take the Python engine; the conservation checks in
``test_cache.py`` run synthetic streams on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.config import GPUConfig, small_config
from repro.sim.engine import Simulator
from repro.sim.stats import AppStats
from repro.workloads.trace import Trace, TraceProfile

LINE = 128
#: a compute phase that outlasts every run here and parks its warp
IDLE = (10**9, [])

WarpTrace = list[tuple[int, list[int]]]


def config(**overrides) -> GPUConfig:
    """``small_config`` with one scheduler per core, so the TLP limit is
    exactly the number of warps that run, and an issue width so wide
    that an idling warp's reservation holds no other warp back (the
    per-warp 1-IPC ceiling still applies)."""
    return small_config().with_(
        schedulers_per_core=1, **{"issue_width": 10**9, **overrides}
    )


@dataclass
class TraceRun:
    sim: Simulator
    #: the app's cumulative counters
    stats: AppStats
    #: every memory instruction's latency, in completion order
    latencies: list[float]


def run_trace(
    warps: list[WarpTrace],
    cfg: GPUConfig | None = None,
    cycles: int = 20_000,
    prepare: Callable[[Simulator], None] | None = None,
) -> TraceRun:
    """Run one app on one core for ``cycles``: warp ``w`` replays
    ``warps[w]`` and then idles; the other warps never start.
    ``prepare`` may adjust the simulator (e.g. bypass) before the run."""
    cfg = cfg or config()
    trace = Trace("TRC")
    for w in range(cfg.max_warps_per_core):
        trace.warps[(0, w)] = [*(warps[w] if w < len(warps) else []), IDLE]
    sim = Simulator(cfg, [TraceProfile(trace)], core_split=(1,), seed=0)
    if prepare is not None:
        prepare(sim)
    latencies: list[float] = []
    note = sim.collector.note_mem_request

    def recording(app_id: int, latency: float) -> None:
        latencies.append(latency)
        note(app_id, latency)

    sim.collector.note_mem_request = recording  # type: ignore[method-assign]
    sim.run(cycles, warmup=1, initial_tlp={0: len(warps)})
    return TraceRun(sim, sim.collector.apps[0], latencies)


def check_conservation(sim: Simulator) -> None:
    """Every access is accounted once, level by level, in the per-app
    counters and the retained MSHR, link and channel counters."""
    apps = list(sim.collector.apps.values())
    for s in apps:
        assert s.l1_misses <= s.l1_accesses
        assert s.l2_accesses <= s.l1_misses
        assert s.l2_misses <= s.l2_accesses
        assert s.dram_lines <= s.l2_misses
        assert s.row_hits + s.row_misses == s.dram_lines
    l1_misses = sum(s.l1_misses for s in apps)
    l2_accesses = sum(s.l2_accesses for s in apps)
    l2_misses = sum(s.l2_misses for s in apps)
    dram_lines = sum(s.dram_lines for s in apps)
    l1_merges = sum(m.merges for m in sim.l1_mshrs)
    l1_parked = sum(m.allocation_failures for m in sim.l1_mshrs)
    l2_merges = sum(m.merges for m in sim.l2_mshrs)
    requests = sum(p.packets for p in sim.crossbar.request_ports)
    responses = sum(p.packets for p in sim.crossbar.response_ports)
    # An L1 miss merges, sends one request packet, or parks (and may
    # park again before it is re-driven).
    assert requests + l1_merges <= l1_misses <= requests + l1_merges + l1_parked
    # Each L2 access arrived as a request; the rest are still in flight,
    # each holding an L1 MSHR entry.
    in_flight = requests - l2_accesses
    assert 0 <= in_flight <= sum(m.n_entries for m in sim.l1_mshrs)
    # One response per L2 hit and per DRAM line, plus one per merged L2
    # waiter the line woke.
    l2_hits = l2_accesses - l2_misses
    assert l2_hits + dram_lines <= responses <= l2_hits + dram_lines + l2_merges
    # Each scheduled burst serves one allocated L2 miss; a line returns
    # only after its burst was scheduled.
    bursts = sum(ch.busy_cycles for ch in sim.channels) / sim.config.dram.burst_cycles
    assert bursts == pytest.approx(round(bursts))
    assert dram_lines <= round(bursts) <= l2_misses - l2_merges
    for port in sim.crossbar.request_ports + sim.crossbar.response_ports:
        assert port.busy_cycles == pytest.approx(port.packets * port.cycles_per_packet)
        assert port.free_at >= port.busy_cycles * (1 - 1e-12), "ports serialise"
        assert port.queue_cycles >= 0.0
