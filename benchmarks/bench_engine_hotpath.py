"""Micro-benchmarks of the Python engine's transaction hot path.

These isolate the three layers the hot-path refactor rebuilt — the
bucketed calendar :class:`~repro.sim.engine.EventQueue`, the
:class:`~repro.sim.engine.MemTxn` stage machine, and the closure-free
memory hierarchy — so a regression in any one of them shows up here
before it dilutes the whole-GPU numbers in ``bench_sim_kernels.py``.

That path is the Python reference engine, so the whole-run cases pin it.
Closed-system runs otherwise execute in the native kernel
(``repro.sim.native``), which the repo benchmark measures
(``python3 perfbench/run.py --workload dynamic --seed 1 --seconds 10
--trace 0``).  The Python engine still runs every open-system, probed,
phased/trace and no-compiler simulation, and this module is the only
timing of it.  The deterministic event-count gate lives in the tier-1
suite (``tests/test_event_budget.py``).
"""

import random

import pytest

from repro.config import medium_config
from repro.sim import engine
from repro.sim.engine import EventQueue, Simulator
from repro.workloads.table4 import app_by_abbr


@pytest.fixture(autouse=True)
def _python_engine():
    previous = engine._set_native(False)
    yield
    engine._set_native(previous)


class _Tick:
    """Slotted callable event, the cheapest thing the queue dispatches."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, now: float) -> None:
        self.count += 1


def test_calendar_queue_churn(benchmark):
    """Push/pop throughput of the bucketed calendar queue.

    Times are drawn the way the engine produces them: mostly near-future
    (within the wheel's horizon), a small tail far out (overflow heap),
    so both the wheel fast path and the overflow migration are exercised.
    """
    rng = random.Random(11)
    offsets = [
        rng.uniform(0.5, 200.0) if rng.random() < 0.97 else rng.uniform(2e4, 5e4)
        for _ in range(8192)
    ]

    def churn():
        events = EventQueue()
        tick = _Tick()
        now = 0.0
        i = 0
        for off in offsets:
            events.push(now + off, tick)
            i += 1
            if i % 8 == 0:
                # Interleave draining so pushes land both ahead of and
                # behind the cursor, as they do mid-simulation.
                now += 25.0
                events.run_until(now)
        events.run_until(1e9)
        return tick.count

    assert benchmark(churn) == len(offsets)


def test_fifo_order_within_tie_is_kept(benchmark):
    """Equal-time events dispatch in push order at full speed.

    The golden fixtures depend on this; the benchmark doubles as a
    cheap continuous check that the seq-numbered heap entries keep
    FIFO-within-tie while being timed.
    """
    order: list[int] = []

    class Probe:
        __slots__ = ("tag",)

        def __init__(self, tag: int) -> None:
            self.tag = tag

        def __call__(self, now: float) -> None:
            order.append(self.tag)

    def run():
        order.clear()
        events = EventQueue()
        for tag in range(2048):
            events.push(float(tag % 7), Probe(tag))
        events.run_until(10.0)
        return order

    result = benchmark(run)
    by_time = [t for time_key in range(7) for t in result if t % 7 == time_key]
    grouped = sorted(result, key=lambda t: (t % 7, result.index(t)))
    assert by_time == grouped  # FIFO within each timestamp


def test_corun_dispatch_throughput(benchmark):
    """The refactor's headline case: two co-running apps, fixed TLP.

    A medium-GPU co-run on the Python engine.
    """
    config = medium_config()
    apps = [app_by_abbr("BFS"), app_by_abbr("GUPS")]

    def run():
        sim = Simulator(config, apps, seed=9)
        sim.run(30_000, warmup=5_000, initial_tlp={0: 16, 1: 16})
        return sim

    sim = benchmark(run)
    assert sim.collector.apps[0].insts > 0


def test_memory_bound_dispatch_throughput(benchmark):
    """Cache-thrashing co-run: the MemTxn stage machine under pressure.

    GUPS+GUPS maximizes L1/L2 misses and DRAM traffic per cycle, so
    nearly every event is a full L1->L2->DRAM->fill transaction chain —
    the worst case for per-event overhead.
    """
    config = medium_config()
    apps = [app_by_abbr("GUPS"), app_by_abbr("GUPS")]

    def run():
        sim = Simulator(config, apps, seed=5)
        sim.run(20_000, warmup=4_000, initial_tlp={0: 24, 1: 24})
        return sim

    sim = benchmark(run)
    assert sim.collector.apps[0].dram_lines > 0
