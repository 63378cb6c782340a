"""The repository benchmark: one paper-campaign phase per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dynamic --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, the tracing overhead and the sampled
share no layer claimed.  Either way every iteration's outputs are
checked, each line before the last names one metric with its unit, and
the last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (host calibration, every
iteration's wall time, failures) goes to ``.perfbench-work/records/``
and, for traced runs, the raw spans beside it.

Host seconds (``wall_s``, ``setup_s`` and the rate ``sim_cycles_per_s``)
are reported at a reference host speed: each timed iteration or set-up
is scaled by ``calibration_ref_s`` over the time a fixed pure-Python
loop took just before it.  On a shared host whose speed drifts by tens
of percent over minutes this is what keeps two sets of runs comparable;
the unscaled median is printed and recorded too.

The workloads, their pairs, run lengths and the metric -> layer ->
workload map are defined in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Untraced/traced iterations a run makes at least, however long they take.
MIN_ITERATIONS = 3
MIN_TRACED = 2

E2E_UNITS = {
    "wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: Simulated PBS gains: printed as context by untraced runs, gated as
#: per-layer metrics by traced runs (they vary by seed more than any
#: end-to-end bound allows at the benchmark's run lengths).
GAINS = ("sim.pbs_ws_gain", "sim.pbs_fi_gain")

#: What a fresh interpreter imports before a workload can run; timed in
#: a child process so set-up can be repeated within one run.
IMPORT_PROGRAM = (
    "import repro.core.runner, repro.experiments.common, repro.exec.pool, "
    "repro.obs.live, repro.sim.engine"
)

STAGES = (
    "compute_done", "warp_resp", "l2_access", "l1_fill",
    "retry_l1", "retry_l2", "retry_dram", "l1_fill_multi",
)


def calibrate(loops: int, repeats: int = 1) -> float:
    """Best of ``repeats`` timings of a fixed pure-Python loop: the host's speed.

    Timed at the start of every run (recorded, so that records from
    different machines can be told apart) and just before every timed
    iteration and set-up, whose seconds are scaled by it: a shared host's
    speed drifts by tens of percent over minutes, and a time measured
    next to it cancels most of that drift.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
            table[i & 255] = acc
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """The calibration loop, timed in-process or on several CPUs at once.

    A timed iteration is scaled by the in-process timing taken just before
    it.  Set-up starts a fresh interpreter and, for ``replay``, fans out
    over the pool, so it is scaled by the mean of ``cpus`` pool
    processes timing the loop together.
    """

    def __init__(self, loops: int, cpus: int) -> None:
        self.loops = loops
        self.cpus = cpus
        # Fork, not spawn: a spawn pool's semaphores would start
        # multiprocessing's resource tracker, a process of its own.
        self._pool = multiprocessing.get_context("fork").Pool(cpus)

    def serial(self) -> float:
        return calibrate(self.loops)

    def all_cpus(self) -> float:
        return statistics.fmean(self._pool.map(calibrate, [self.loops] * self.cpus, chunksize=1))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()
        self._pool = None


def stop_helper_processes() -> None:
    """Stop and reap every process multiprocessing started for this run.

    Leftover children are terminated and joined.  multiprocessing's
    resource tracker and forkserver, if anything started them, would
    outlive the benchmark by a moment (each notices the parent is gone
    only once its pipe closes), so they are stopped and waited for.
    """
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n


class Traced:
    """Everything the traced iterations of one run accumulate."""

    def __init__(self, attribution, src: Path) -> None:
        self.attr = attribution
        self.layers = attribution.LayerMap(src)
        self.recorder = attribution.SpanRecorder()
        self.sampler = attribution.Sampler(self.layers)
        self.iterations = 0
        self.counters: Counter = Counter()
        self.wheel_high_water = 0.0
        self.profiles: list[dict] = []
        self.jobs: list[tuple[float, float]] = []
        self.trace_events = 0
        self.live_records = 0
        self.store_reads: list[int] = []
        self.first_counts: dict | None = None

    def begin(self) -> None:
        self.recorder.run_id = self.iterations
        self.attr.instrument(self.recorder, self.store_reads)
        self.sampler.__enter__()

    def end(self) -> None:
        self.sampler.__exit__()
        self.recorder.restore()

    def absorb(self, telemetry) -> list[str]:
        """Fold one traced iteration in; returns failed determinism checks."""
        self.iterations += 1
        counts = {
            k: v for k, v in telemetry.registry.counters.items() if k.startswith("engine.")
        }
        if self.first_counts is None:
            self.first_counts = counts
        self.counters.update(telemetry.registry.counters)
        for name, value in telemetry.registry.gauges.items():
            if name.startswith("engine.wheel.high_water"):
                self.wheel_high_water = max(self.wheel_high_water, value)
        self.profiles += telemetry.profiles
        self.jobs += [
            (e.dur / 1e6, float(e.args.get("queue_wait_s", 0.0)))
            for e in telemetry.trace_events
            if e.cat == "job" and e.ph == "X"
        ]
        self.trace_events += len(telemetry.trace_events)
        self.live_records += telemetry.live_records
        if counts != self.first_counts:
            return ["engine work counts differ between traced iterations"]
        return []


def sim_stats(outcome: dict) -> dict[str, float]:
    """Simulated statistics of the workload's products (deterministic)."""
    samples = [s for r in outcome["sims"] for s in r.samples.values()]
    controlled = outcome["controlled"]
    changes = 0
    for r in controlled:
        last: dict = {}
        for _t, app, tlp in r.result.tlp_timeline:
            changes += app in last and last[app] != tlp
            last[app] = tlp

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    return {
        "sim.l1.miss_rate": mean([s.l1_miss_rate for s in samples]),
        "sim.l2.miss_rate": mean([s.l2_miss_rate for s in samples]),
        "sim.mem_latency_cycles": mean([s.avg_mem_latency for s in samples]),
        "sim.dram.row_hit_rate": mean([s.row_hit_rate for s in samples]),
        "sim.dram.utilization": mean([r.dram_utilization for r in outcome["sims"]]),
        "sim.stats.windows": sum(len(r.result.windows) for r in controlled),
        "core.ctrl.tlp_changes": changes,
        "core.pbs.decisions": sum(
            len(r.decisions) for r in controlled if r.scheme.startswith("pbs")
        ),
        **outcome["sim_values"],
    }


def layer_metrics(wl, tr: Traced, outcome: dict, trace_overhead_s: float) -> dict:
    """Per-layer metrics, per iteration (means over the traced iterations)."""
    attr, n = tr.attr, tr.iterations
    rec = tr.recorder
    seconds, self_s = Counter(), Counter()
    for run_id in range(n):
        seconds.update(rec.seconds(run_id))
        self_s.update(rec.self_seconds(run_id))
    outer_windows = sum(
        1 for sp in rec.spans
        if sp[0] == "core.ctrl.on_window"
        and (sp[4] < 0 or rec.spans[sp[4]][0] != "core.ctrl.on_window")
    )
    worker_s = attr.layer_seconds_from_profiles(tr.profiles, tr.layers)
    layer_s = Counter(tr.sampler.layer_seconds())
    layer_s.update(worker_s)

    def profile_cum(module: str, funcs: set[str]) -> float:
        return attr.cum_seconds_from_profiles(tr.profiles, tr.layers, module, funcs)

    events = tr.counters["engine.events.dispatched"] / n
    run_s = (seconds["sim.run"] + profile_cum("sim/engine", {"run"})) / n
    stats = sim_stats(outcome)
    jobs = [d for d, _w in tr.jobs]
    tail, tail_pct = percentile_tail(jobs)
    pool_s = seconds["exec.run_jobs"] * wl.n_jobs
    counters = tr.counters
    hits = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith(".hit"))
    misses = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith(".miss"))
    saves = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith(".save"))
    samples = tr.sampler.samples

    probe = wl.construct_probe()
    metrics = {
        "sim.engine.events": (events, "count"),
        "sim.engine.events_per_cycle": (events / outcome["sim_cycles"] if events else 0.0, "1/cycle"),
        **{
            f"sim.engine.dispatch.{stage}": (counters[f"engine.dispatch.{stage}"] / n, "count")
            for stage in STAGES
        },
        "sim.engine.ns_per_event": (run_s / events * 1e9 if events else 0.0, "ns"),
        "sim.engine.self_s": (layer_s["sim.engine"] / n, "s"),
        "sim.engine.wheel_high_water": (tr.wheel_high_water, "count"),
        "sim.engine.construct_s": (probe, "s"),
        "sim.dram.self_s": (layer_s["sim.dram"] / n, "s"),
        "sim.dram.row_hit_rate": (stats["sim.dram.row_hit_rate"], "fraction"),
        "sim.dram.utilization": (stats["sim.dram.utilization"], "fraction"),
        "sim.l1.miss_rate": (stats["sim.l1.miss_rate"], "fraction"),
        "sim.l2.miss_rate": (stats["sim.l2.miss_rate"], "fraction"),
        "sim.mem_latency_cycles": (stats["sim.mem_latency_cycles"], "cycles"),
        "workloads.stream.self_s": (layer_s["workloads.stream"] / n, "s"),
        "sim.stats.windows": (stats["sim.stats.windows"], "count"),
        "sim.stats.self_s": (layer_s["sim.stats"] / n, "s"),
        "core.ctrl.windows": (outer_windows / n, "count"),
        "core.ctrl.tlp_changes": (stats["core.ctrl.tlp_changes"], "count"),
        "core.ctrl.self_s": (
            (self_s["core.ctrl.on_window"] + self_s["core.ctrl.start"]) / n, "s"
        ),
        "core.pbs.decisions": (stats["core.pbs.decisions"], "count"),
        **{name: (stats[name], "ratio") for name in GAINS},
        "core.offline.search_s": (
            (seconds["core.offline.search"] + profile_cum("core/offline", {
                "sampled_scale", "brute_force_search", "oracle_search", "pbs_offline_search",
            })) / n, "s",
        ),
        "exec.jobs": (len(jobs) / n, "count"),
        "exec.job_s.p50": (statistics.median(jobs) if jobs else 0.0, "s"),
        "exec.job_s.tail": (tail, "s"),
        "exec.job_s.tail_pct": (tail_pct, "percentile"),
        "exec.queue_wait_s": (statistics.median([w for _d, w in tr.jobs]) if jobs else 0.0, "s"),
        "exec.efficiency": (sum(jobs) / pool_s if pool_s and jobs else 0.0, "fraction"),
        "exec.failed": (outcome.get("job_errors", 0), "count"),
        "store.saves": (saves / n, "count"),
        "store.save_s": (
            (seconds["store.save"] + profile_cum("experiments/common", {"save"})) / n, "s"
        ),
        "store.bytes_written": (outcome.get("store_bytes", 0), "bytes"),
        "store.hits": (hits / n, "count"),
        "store.misses": (misses / n, "count"),
        "store.load_s": (
            (seconds["store.load"] + profile_cum("experiments/common", {"load"})) / n, "s"
        ),
        "store.bytes_read": (sum(tr.store_reads) / n, "bytes"),
        "experiments.self_s": (
            (sum(v for k, v in self_s.items() if k.startswith(("experiments.", "store.")))
             + worker_s.get("experiments.common", 0.0)) / n,
            "s",
        ),
        "obs.trace_events": (tr.trace_events / n, "count"),
        "obs.live_records": (tr.live_records / n, "count"),
        "obs.emit_s": (seconds["obs.emit"] / n, "s"),
        "obs.self_s": (layer_s["obs"] / n, "s"),
        "bench.trace_overhead_s": (trace_overhead_s, "s"),
        "bench.samples": (samples, "count"),
        "bench.unattributed_share": (
            tr.sampler.counts[attr.UNATTRIBUTED] / samples if samples else 0.0, "fraction"
        ),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)
    loops = spec["calibration_loops"]
    calibration_s = calibrate(loops, repeats=3)

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import attribution
    from workloads import WORKLOADS, digest
    import repro

    import_s = time.perf_counter() - t_import
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](spec, WORK)
    host_speed = HostSpeed(loops, max(w["n_jobs"] for w in spec["workloads"].values()))
    try:
        return measure(args, spec, wl, host_speed, calibration_s, import_s, digest, attribution)
    finally:
        host_speed.close()
        stop_helper_processes()


def measure(args, spec, wl, host_speed, calibration_s, import_s, digest, attribution) -> int:
    """Set up, run the timed iterations, check them and print the result."""
    loops = host_speed.loops

    def scaled(seconds: float, before: float, after: float) -> float:
        """Seconds at the reference host speed (``calibration_ref_s``), from
        the calibrations timed on either side of the measured interval."""
        return seconds * spec["calibration_ref_s"] / ((before + after) / 2)

    repeats = 1 if args.trace else wl.defn.get("setup_repeats", spec["setup_repeats"])
    setup_cals = [host_speed.all_cpus()]
    setup_runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT, env={
            **os.environ, "PYTHONPATH": str(SRC)}, check=True)
        t1 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_runs.append((t1 - t0, time.perf_counter() - t1))
        setup_cals.append(host_speed.all_cpus())
    setup_s = statistics.median(
        scaled(a + b, setup_cals[i], setup_cals[i + 1]) for i, (a, b) in enumerate(setup_runs)
    )

    traced = Traced(attribution, SRC) if args.trace else None
    # Iteration i ran between calibrations cals[i] and cals[i + 1].
    cals = [host_speed.serial()]
    walls: list[tuple[float, int]] = []  # (seconds, iteration index)
    traced_walls: list[tuple[float, int]] = []
    attempted = failed = job_errors = 0
    failures: list[str] = []
    reference: dict | None = None
    last_outcome: dict | None = None
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing = traced is not None and len(walls) > len(traced_walls)
        state = wl.prepare(inputs, tracing)
        if tracing:
            traced.begin()
        raised = False
        t0 = time.perf_counter()
        try:
            wl.work(state)
        except Exception as exc:  # a failing iteration counts; the run goes on
            raised = True
            job_errors += type(exc).__name__ == "JobError"
            traceback.print_exc()
            attempted += wl.ops_per_iteration
            failed += wl.ops_per_iteration
            failures.append(f"iteration raised {type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - t0
            if tracing:
                traced.end()
            state["telemetry"].close()
            cals.append(host_speed.serial())
        index = len(cals) - 2
        if not raised:
            outcome = wl.finish(state)
            ops = outcome["ops"]
            found = list(outcome["failures"])
            observed = {"digests": [digest(r) for r in ops], "sim": sim_stats(outcome)}
            if reference is None:
                reference = observed
            else:
                found += [
                    f"op {i}: result differs from the first iteration's"
                    for i, (a, b) in enumerate(zip(observed["digests"], reference["digests"]))
                    if a != b
                ]
                if observed["sim"] != reference["sim"]:
                    found.append("simulated statistics differ from the first iteration's")
            if tracing:
                traced_walls.append((wall, index))
                found += traced.absorb(state["telemetry"])
            else:
                walls.append((wall, index))
            attempted += len(ops)
            failed += min(len(found), len(ops))
            failures += found
            outcome["job_errors"] = job_errors
            last_outcome = outcome
        done = time.perf_counter() >= deadline
        if done and len(walls) >= MIN_ITERATIONS and (
            traced is None or len(traced_walls) >= MIN_TRACED
        ):
            break
        if done and last_outcome is None:
            break
    wl.cleanup()

    if last_outcome is None or not walls:
        print("error: no iteration completed", file=sys.stderr)
        for line in failures[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1

    def at_reference(timed: list[tuple[float, int]]) -> list[float]:
        return [scaled(w, cals[i], cals[i + 1]) for w, i in timed]

    if traced is None:
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": statistics.median(at_reference(walls)),
            "sim_cycles_per_s": statistics.median(
                last_outcome["sim_cycles"] / w for w in at_reference(walls)
            ),
            "setup_s": setup_s,
            "peak_rss_mb": (usage_self + usage_children) / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}
    else:
        overhead = statistics.median(at_reference(traced_walls)) - statistics.median(
            at_reference(walls)
        )
        metrics = layer_metrics(wl, traced, last_outcome, overhead)

    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "calibration_s": calibration_s,
            "calibration_loops": loops,
            "calibration_cpus": host_speed.cpus,
        },
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "setup_calibrations_s": setup_cals,
        "calibrations_s": cals,
        "walls_s": walls,
        "traced_walls_s": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "metrics": named,
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced is not None:
        (records / f"{stem}.spans.json").write_text(json.dumps(traced.recorder.to_json()))

    print(f"host calibration: {calibration_s:.6f} s for {loops} loops "
          f"({platform.machine()}, Python {platform.python_version()})")
    print(f"iterations: {len(walls)} untraced, {len(traced_walls)} traced; "
          f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for line in failures[:20]:
        print(f"check failed: {line}")
    if traced is None:
        print(f"unscaled wall median: {statistics.median(w for w, _i in walls):.6g} s "
              f"(reference calibration {spec['calibration_ref_s']} s)")
        for name in GAINS:
            print(f"{name} = {reference['sim'][name]:.6g} ratio (context; gated by --trace 1)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": named,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
