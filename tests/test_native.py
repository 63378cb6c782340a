"""The native kernel against the Python reference engine.

``repro.sim.native`` runs closed-system simulations in C; the Python
engine in ``repro.sim.engine`` is the reference.  These tests hold the
two to bit-identical results and engine counters, check the kernel's
MT19937 draw for draw against ``random.Random``, and pin the backend
selection and its fallback when no compiler is available.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheGeometry, small_config
from repro.core.ccws import CCWSController
from repro.core.controller import BaseController
from repro.core.dyncta import DynCTAController
from repro.core.modbypass import ModBypassController
from repro.core.pbs import PBSController
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.sim import engine, native
from repro.sim.address import AddressMap
from repro.sim.engine import Simulator, set_engine_profiling
from repro.sim.probes import LatencyHistogram, attach
from repro.sim.tenancy import TenancyEvent
from repro.workloads.phases import PhasedProfile
from repro.workloads.synthetic import stream_seed
from repro.workloads.table4 import APPLICATIONS, app_by_abbr
from repro.workloads.trace import TraceProfile, record_trace

needs_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native kernel unavailable: {native.load_error()}",
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_backend(native_on: bool, build, profile: bool = False):
    """Build a simulator with ``build()`` and run it on one backend.

    Returns (backend name, result, engine counters and gauges).
    """
    previous = engine._set_native(native_on)
    previous_prof = set_engine_profiling(profile)
    previous_registry = set_metrics(MetricsRegistry())
    try:
        sim, run = build()
        result = run(sim)
        registry = set_metrics(previous_registry)
    finally:
        engine._set_native(previous)
        set_engine_profiling(previous_prof)
        set_metrics(previous_registry)
    counters = {k: v for k, v in registry.counters.items() if k.startswith("engine.")}
    gauges = {k: v for k, v in registry.gauges.items() if k.startswith("engine.")}
    return sim.backend, result, (counters, gauges)


# ----------------------------------------------------------------------
# MT19937 against random.Random
# ----------------------------------------------------------------------

SEEDS = (
    0, 1, 2, 0xEB, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1,
    *(stream_seed(s, a, c, w) for s, a, c, w in ((0, 0, 0, 0), (7, 1, 3, 47), (235, 0, 5, 12))),
)

#: every bit length 1-32, with the rejection-heavy 2**k + 1 and the
#: exact powers, plus wider draws
RANGES = sorted({
    *range(1, 9),
    *(2**k for k in range(33)),
    *(2**k + 1 for k in range(33)),
    *(2**k - 1 for k in range(2, 33)),
    3 * 2**20, 4096, 1 << 20, 2**40 + 3, 2**53 + 1, 2**63 + 5,
})


@needs_native
@pytest.mark.parametrize("seed", SEEDS)
def test_mt_random_matches_cpython(seed):
    ref = random.Random(seed)
    mt = native.MT19937(seed)
    assert [mt.random() for _ in range(2000)] == [ref.random() for _ in range(2000)]


@needs_native
@pytest.mark.parametrize("seed", SEEDS)
def test_mt_randrange_matches_cpython(seed):
    ref = random.Random(seed)
    mt = native.MT19937(seed)
    for n in RANGES:
        for _ in range(5):
            assert mt.randrange(n) == ref.randrange(n), n
        # interleave the two draw kinds, as the streams do
        assert mt.random() == ref.random()


@needs_native
@pytest.mark.parametrize("abbr", ["BLK", "BFS", "GUPS", "LUD"])
def test_mt_reproduces_ring_prepopulation(abbr):
    """A stream's construction draws (its reuse ring) and the draws after
    them come out of the kernel's generator seeded from ``stream.seed``."""
    cfg = small_config()
    amap = AddressMap.from_config(cfg)
    profile = app_by_abbr(abbr)
    core_stream = profile.make_core_stream(0, 1, amap)
    stream = profile.make_stream(0, 1, 5, seed=99, addr_map=amap, core_stream=core_stream)
    mt = native.MT19937(stream.seed)
    ring = [
        core_stream.base + mt.randrange(profile.stream_lines) * amap.line_bytes
        for _ in range(profile.footprint_lines)
    ]
    assert ring == stream._ring
    assert [mt.random() for _ in range(50)] == [stream.rng.random() for _ in range(50)]


# ----------------------------------------------------------------------
# Differential runs
# ----------------------------------------------------------------------


#: Configurations of the differential runs.  "two-channel" lets data
#: returns from different channels land on one core in the same cycle
#: (L1_FILL_MULTI; one channel's response port serialises its fills).
#: "tiny-mshr" parks misses on the L1 and L2 MSHR deferred queues and
#: re-drives them as fills free entries.  An idle DRAM scheduler decides
#: on arrival, so its queue only builds when several requests reach a
#: channel in the same instant: "instant-xbar" makes crossbar packets
#: take no port time (1e-300 cycles vanish when added to a time), which
#: reaches the FR-FCFS pick, the lagged decisions and the DRAM deferred
#: queue with its re-drive.  "dramq0" parks every L2 miss on a
#: zero-depth queue for good.
_TINY_MSHR = small_config().with_(
    l1=CacheGeometry(size_bytes=4 * 1024, assoc=4, mshr_entries=8),
    l2_per_channel=CacheGeometry(size_bytes=32 * 1024, assoc=8, mshr_entries=1),
)
CONFIGS = {
    "small": small_config(),
    "two-channel": small_config().with_(n_channels=2),
    "tiny-mshr": _TINY_MSHR,
    "instant-xbar": small_config().with_(
        icnt_flits_per_cycle_per_port=1e300, dram_queue_depth=2
    ),
    "dramq0": _TINY_MSHR.with_(dram_queue_depth=0),
}


class BypassToggler(BaseController):
    """Flips L1/L2 bypass per app on a fixed schedule, one step a window."""

    def __init__(self, schedule, sample_period):
        super().__init__(sample_period)
        self.schedule = list(schedule)
        self.step = 0

    def on_window(self, sim, now, windows):
        if self.step < len(self.schedule):
            level, app_id, on = self.schedule[self.step]
            if app_id < len(sim.apps):
                if level == 1:
                    sim.set_l1_bypass(app_id, on)
                else:
                    sim.set_l2_bypass(app_id, on)
            self.actuate(sim, app_id % len(sim.apps), 1 + self.step % 8)
        self.step += 1


def make_controller(kind, n_apps, period, schedule):
    if kind is None:
        return None
    if kind == "dyncta":
        return DynCTAController(n_apps, sample_period=period)
    if kind == "ccws":
        return CCWSController(n_apps, sample_period=period)
    if kind == "modbypass":
        return ModBypassController(n_apps, sample_period=period)
    if kind == "toggle":
        return BypassToggler(schedule, period)
    metric = kind.rsplit("-", 1)[-1]
    scale = "sampled" if metric in ("fi", "hs") else None
    return PBSController(metric, n_apps=n_apps, scale=scale, sample_period=period)


@pytest.mark.parametrize("name,parked", [
    ("tiny-mshr", (True, True, False)),
    ("instant-xbar", (True, False, True)),
    ("dramq0", (True, True, True)),
])
def test_tiny_configs_park_on_deferred_queues(name, parked, python_engine):
    """The differential strategy's tiny depths really park transactions
    on the L1-MSHR, L2-MSHR and DRAM deferred queues."""
    sim = Simulator(CONFIGS[name], [app_by_abbr("GUPS"), app_by_abbr("BFS")], seed=3)
    peaks = [0, 0, 0]

    def sample(now):
        for i, queues in enumerate((sim._l1_deferred, sim._l2_deferred, sim._dram_deferred)):
            peaks[i] = max(peaks[i], max(len(q) for q in queues))
        sim.events.push(now + 7, sample)

    sim.events.push(1.0, sample)
    sim.run(4000, warmup=500, initial_tlp={0: 24, 1: 24})
    assert tuple(p > 0 for p in peaks) == parked, peaks


def test_every_declared_stage_is_dispatched():
    """Every MemTxn stage the engine declares is reachable: profiled
    Python-engine runs over "two-channel" (same-instant fills, so
    L1_FILL_MULTI) and "tiny-mshr" (MSHR backpressure) dispatch each
    ``_STAGE_NAMES`` entry at least once.  A stage nothing dispatches
    is dead code in both backends and fails here."""
    dispatched = dict.fromkeys(engine._STAGE_NAMES, 0)
    for name in ("two-channel", "tiny-mshr"):

        def build(cfg=CONFIGS[name]):
            sim = Simulator(cfg, [app_by_abbr("GUPS"), app_by_abbr("BFS")], seed=3)
            return sim, lambda s: s.run(4000, warmup=500, initial_tlp={0: 24, 1: 24})

        backend, _, (counters, _) = run_backend(False, build, profile=True)
        assert backend == "python"
        for stage in dispatched:
            dispatched[stage] += counters.get(f"engine.dispatch.{stage}", 0)
    assert all(dispatched.values()), dispatched


APP_NAMES = [a.abbr for a in APPLICATIONS]


@needs_native
@given(
    apps=st.lists(st.sampled_from(APP_NAMES), min_size=1, max_size=2),
    tlps=st.tuples(st.sampled_from((1, 2, 4, 8, 16, 24)), st.sampled_from((1, 4, 8, 24))),
    seed=st.integers(0, 2**16),
    config=st.sampled_from(sorted(CONFIGS)),
    quota=st.one_of(st.none(), st.integers(1, 6)),
    controller=st.sampled_from(
        (None, "dyncta", "ccws", "modbypass", "pbs-ws", "pbs-fi", "toggle")
    ),
    schedule=st.lists(
        st.tuples(st.sampled_from((1, 2)), st.integers(0, 1), st.booleans()),
        max_size=6,
    ),
    period=st.sampled_from((300.0, 500, 700.0)),
    cycles=st.sampled_from((2500, 4000)),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_backends_agree(apps, tlps, seed, config, quota, controller, schedule, period, cycles):
    cfg = CONFIGS[config]
    profiles = [app_by_abbr(a) for a in apps]
    n = len(profiles)
    core_split = (1,) if n == 1 else None

    def build():
        sim = Simulator(
            cfg,
            profiles,
            core_split=core_split,
            seed=seed,
            controller=make_controller(controller, n, period, schedule),
            l2_way_quota={0: quota} if quota else None,
        )
        initial = {a: tlps[a] for a in range(n)}
        return sim, lambda s: s.run(cycles, warmup=cycles // 5, initial_tlp=initial)

    fast = run_backend(True, build, profile=True)
    ref = run_backend(False, build, profile=True)
    assert (fast[0], ref[0]) == ("native", "python")
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]


@needs_native
def test_profiled_counters_agree_on_a_dynamic_run():
    """Engine self-profiling fills the same counters and gauges on both
    backends (per-stage dispatches, events dispatched, queue high-water
    mark)."""
    cfg = small_config()

    def build():
        sim = Simulator(
            cfg,
            [app_by_abbr("BLK"), app_by_abbr("TRD")],
            seed=7,
            controller=PBSController("ws", n_apps=2, sample_period=800.0),
        )
        return sim, lambda s: s.run(20000, warmup=2000, initial_tlp={0: 24, 1: 24})

    fast = run_backend(True, build, profile=True)
    ref = run_backend(False, build, profile=True)
    counters, gauges = fast[2]
    assert counters["engine.events.dispatched"] > 0
    assert gauges.keys() == {"engine.wheel.high_water"}
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]


@needs_native
@pytest.mark.parametrize("level", [1, 2])
def test_bypass_and_quota_set_before_run_agree(level):
    """Bypass flags and way quotas set on the Python caches before the
    run are loaded into the kernel."""

    def build():
        sim = Simulator(
            CONFIGS["two-channel"], [app_by_abbr("TRD"), app_by_abbr("BLK")],
            seed=5, l2_way_quota={1: 2},
        )
        (sim.set_l1_bypass if level == 1 else sim.set_l2_bypass)(0, True)
        return sim, lambda s: s.run(6000, warmup=1000, initial_tlp={0: 24, 1: 8})

    fast = run_backend(True, build)
    ref = run_backend(False, build)
    assert (fast[0], ref[0]) == ("native", "python")
    assert fast[1] == ref[1]


@needs_native
def test_native_run_reads_back_component_counters():
    """After a native run the Python side carries the kernel's counters:
    per-app AppStats, MSHR, crossbar-link and channel busy-cycle
    counters, warp progress, TLP limits."""

    def build():
        sim = Simulator(
            CONFIGS["tiny-mshr"], [app_by_abbr("GUPS"), app_by_abbr("TRD")], seed=5
        )
        return sim, lambda s: s.run(4000, warmup=500, initial_tlp={0: 24, 1: 4})

    fast_sim_result = []
    ref_sim_result = []
    for native_on, sink in ((True, fast_sim_result), (False, ref_sim_result)):
        previous = engine._set_native(native_on)
        try:
            sim, run = build()
            run(sim)
        finally:
            engine._set_native(previous)
        sink.append((
            sim.backend,
            [dataclasses.astuple(s) for s in sim.collector.apps.values()],
            [(m.merges, m.allocation_failures) for m in sim.l1_mshrs + sim.l2_mshrs],
            [ch.busy_cycles for ch in sim.channels],
            [(p.free_at, p.packets, p.busy_cycles, p.queue_cycles)
             for p in sim.crossbar.request_ports + sim.crossbar.response_ports],
            [(w.active, w.parked, w.pending, w.iterations)
             for core in sim.cores for w in core.warps],
            [core.tlp for core in sim.cores],
            sim.events.now,
            sim.events_processed,
        ))
    (fast,), (ref,) = fast_sim_result, ref_sim_result
    assert (fast[0], ref[0]) == ("native", "python")
    assert fast[1:] == ref[1:]


# ----------------------------------------------------------------------
# Backend selection and fallback
# ----------------------------------------------------------------------


def small_pair_sim(**kwargs):
    return Simulator(small_config(), [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7, **kwargs)


def test_closed_run_selects_native_when_loaded():
    sim = small_pair_sim()
    sim.run(3000, warmup=500)
    assert sim.backend == ("native" if native.available() else "python")


def test_switch_selects_python(python_engine):
    sim = small_pair_sim()
    sim.run(3000, warmup=500)
    assert sim.backend == "python"


def test_open_system_run_selects_python():
    sim = small_pair_sim(
        arrivals=(TenancyEvent(cycle=1500, action="detach", app_id=1),)
    )
    sim.run(3000, warmup=500)
    assert sim.backend == "python"


def test_probed_run_selects_python():
    sim = small_pair_sim()
    attach(sim, latency=LatencyHistogram())
    sim.run(3000, warmup=500)
    assert sim.backend == "python"


def test_prerun_events_select_python():
    sim = small_pair_sim()
    sim.events.push(1000.0, lambda t: sim.set_tlp(0, 4))
    sim.run(3000, warmup=500)
    assert sim.backend == "python"


def test_phased_and_trace_apps_select_python():
    cfg = small_config()
    phased = PhasedProfile(
        abbr="PHZ", phases=(app_by_abbr("BLK"), app_by_abbr("BFS")), iterations_per_phase=5
    )
    trace = TraceProfile(record_trace(app_by_abbr("BLK"), cfg, n_cores=1, requests_per_warp=16))
    for apps in ([phased, app_by_abbr("TRD")], [trace, app_by_abbr("TRD")]):
        sim = Simulator(cfg, apps, seed=3)
        sim.run(3000, warmup=500)
        assert sim.backend == "python"


def test_addresses_beyond_63_bits_select_python():
    """Python ints have no width; the kernel's words do, so a stream
    region that ends past 2**63 runs on the Python engine."""
    wide = dataclasses.replace(app_by_abbr("BLK"), stream_lines=1 << 60)
    sim = Simulator(small_config(), [wide, app_by_abbr("TRD")], seed=3)
    sim.run(2000, warmup=500)
    assert sim.backend == "python"


def test_missing_library_falls_back_to_equal_results(monkeypatch):
    def build():
        return small_pair_sim(
            controller=DynCTAController(2, sample_period=600.0)
        ), lambda s: s.run(5000, warmup=1000)

    expected = run_backend(True, build)
    monkeypatch.setattr(native, "_LIB", None)
    fallback = run_backend(True, build)
    assert fallback[0] == "python"
    assert fallback[1] == expected[1]


def test_load_without_compiler_reports_reason(tmp_path):
    lib, reason = native.load(cache_dir=tmp_path, compiler=lambda: None)
    assert lib is None and "no C compiler" in reason
    assert not any(tmp_path.iterdir())


def test_failed_compile_reports_reason_and_leaves_no_files(tmp_path):
    lib, reason = native.load(cache_dir=tmp_path, compiler=lambda: "/bin/false")
    assert lib is None and "exited 1" in reason
    assert not any(tmp_path.iterdir())


@needs_native
def test_cold_build_publishes_one_library(tmp_path):
    lib, reason = native.load(cache_dir=tmp_path)
    assert lib is not None, reason
    (built,) = tmp_path.iterdir()
    assert built.suffix == ".so"
    stamp = built.stat().st_mtime_ns
    again, _ = native.load(cache_dir=tmp_path)
    assert again is not None
    assert [p.name for p in tmp_path.iterdir()] == [built.name]
    assert built.stat().st_mtime_ns == stamp  # reused, not rebuilt


_SUBPROCESS_RUN = """
import json
from repro.config import small_config
from repro.core.dyncta import DynCTAController
from repro.sim import Simulator, native
from repro.workloads.table4 import app_by_abbr
sim = Simulator(small_config(), [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7,
                controller=DynCTAController(2, sample_period=600.0))
result = sim.run(5000, warmup=1000)
print(json.dumps({"available": native.available(), "reason": native.load_error(),
                  "backend": sim.backend, "ipc": [result.ipc(0), result.ipc(1)],
                  "timeline": result.tlp_timeline, "util": result.dram_utilization}))
"""


def test_hidden_compiler_runs_python_engine_with_equal_results(tmp_path):
    """A process that finds no compiler on PATH runs the Python engine
    and reproduces this process's results."""
    env = {"PATH": str(tmp_path), "PYTHONPATH": str(SRC), "HOME": os.environ.get("HOME", "/")}
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_RUN],
        env=env, capture_output=True, text=True, check=True,
    )
    hidden = json.loads(proc.stdout)
    assert hidden["available"] is False
    assert "no C compiler" in hidden["reason"]
    assert hidden["backend"] == "python"

    sim = Simulator(small_config(), [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7,
                    controller=DynCTAController(2, sample_period=600.0))
    result = sim.run(5000, warmup=1000)
    here = json.loads(json.dumps({
        "ipc": [result.ipc(0), result.ipc(1)], "timeline": result.tlp_timeline,
        "util": result.dram_utilization,
    }))
    assert {k: hidden[k] for k in here} == here
