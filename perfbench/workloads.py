"""The benchmark's three workloads, which split the paper campaign by phase.

Each workload has the same shape:

* ``setup(seed)`` builds the inputs from the seed (repeatable; timed as
  set-up, never as the workload);
* ``prepare(inputs, traced)`` does the per-iteration chores outside the
  timed region (a fresh store directory, the telemetry to install);
* ``work(state)`` is the timed call into the program;
* ``finish(state)`` gathers the products, still outside the timed region.

``outcome`` dictionaries carry the scheme results (one check-able
operation each), the simulation results that feed the simulated
statistics, and the workload's own counters.  Definitions (pairs, run
lengths, scheme lists) live in ``workloads.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path

from repro import medium_config
from repro.config import TLP_LEVELS
from repro.core import runner
from repro.core.runner import ALL_SCHEMES, RunLengths, profile_alone
from repro.experiments.common import ExperimentContext, ResultStore
from repro.obs.live import LiveHub, set_publisher
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.sim import Simulator, set_engine_profiling
from repro.workloads.table4 import app_by_abbr

#: WindowSample fields that are rates or fractions of peak, so in [0, 1].
RATE_FIELDS = ("l1_miss_rate", "l2_miss_rate", "cmr", "bw", "row_hit_rate")


def digest(value: object) -> str:
    """Canonical content hash of a result dataclass (tuples read as lists)."""
    blob = json.dumps(dataclasses.asdict(value), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sub_seeds(seed: int, count: int) -> list[int]:
    """The simulation seeds one workload seed expands into."""
    return [seed * 1000 + i for i in range(count)]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Telemetry:
    """The program's ambient telemetry for one iteration.

    Always a fresh metrics registry (so store and engine counters are
    per iteration); optionally the program's Tracer, a live-telemetry
    hub (``live``), cProfile of pool jobs (``profile``) and the engine's
    dispatch counters (``engine``).
    """

    def __init__(self, work: Path, *, tracer=False, live=False, profile=False, engine=False):
        self.registry = MetricsRegistry()
        self.tracer = Tracer("perfbench") if tracer else None
        self.profiles: list[dict] = []
        self.hub = None
        if live:
            self.hub = LiveHub(
                "perfbench", work / "live.ndjson", profile=profile,
                profile_top=100_000, on_record=self._on_record,
            )
        self.engine = engine
        self._previous: tuple = ()

    def _on_record(self, record: dict) -> None:
        if record["type"] == "profile":
            self.profiles.append(record)

    def __enter__(self) -> "Telemetry":
        self._previous = (
            set_metrics(self.registry),
            set_publisher(self.hub.publisher if self.hub else None),
            set_engine_profiling(self.engine),
        )
        set_tracer(self.tracer)
        return self

    def __exit__(self, *exc: object) -> None:
        _registry, publisher, engine = self._previous
        set_tracer(None)
        set_engine_profiling(engine)
        set_publisher(publisher)

    def close(self) -> None:
        """Seal the live stream (outside the timed region), then restore.

        The hub is closed while this iteration's registry is still
        ambient: its final drain merges the last worker metric deltas.
        """
        if self.hub is not None:
            self.hub.close()
            self.hub.path.unlink(missing_ok=True)
        if self._previous:
            set_metrics(self._previous[0])

    @property
    def live_records(self) -> int:
        return self.hub.records if self.hub else 0

    @property
    def trace_events(self) -> list:
        return self.tracer.events if self.tracer else []


class Workload:
    """Common plumbing: config, pair, run lengths, sub-seeds."""

    name = ""
    #: whether the workload itself runs with the program's tracer and
    #: live publisher installed (on every iteration, traced or not)
    telemetry_on = False

    def __init__(self, spec: dict, workdir: Path) -> None:
        self.spec = spec
        self.defn = spec["workloads"][self.name]
        self.workdir = workdir
        self.config = medium_config()
        self.lengths = RunLengths(**spec["run_lengths"])
        self.apps = [app_by_abbr(abbr) for abbr in self.defn["pair"]]
        self.schemes = list(self.defn.get("schemes", ALL_SCHEMES))
        self.n_jobs = self.defn["n_jobs"]

    def seeds(self, seed: int) -> list[int]:
        return sub_seeds(seed, self.defn["sub_seeds"])

    @property
    def ops_per_iteration(self) -> int:
        """Scheme results one iteration produces (the checked operations)."""
        return len(self.schemes) * self.defn["sub_seeds"]

    def construct_probe(self, repeats: int = 5) -> float:
        """Median host seconds to build one Simulator for the sweep pair."""
        apps = [app_by_abbr(a) for a in self.spec["workloads"]["sweep"]["pair"]]
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            Simulator(self.config, apps, seed=1)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def cleanup(self) -> None:
        """Remove this workload's store directories."""
        for path in self.workdir.glob(f"{self.name}-store-*"):
            shutil.rmtree(path, ignore_errors=True)

    def telemetry(self, traced: bool) -> Telemetry:
        return Telemetry(
            self.workdir, tracer=self.telemetry_on, live=self.telemetry_on, engine=traced
        )

    def context(self, seed: int, store_dir: Path) -> ExperimentContext:
        return ExperimentContext(
            config=self.config, lengths=self.lengths, seed=seed,
            store=ResultStore(store_dir), n_jobs=self.n_jobs,
        )

    def scheme_cycles(self, scheme: str) -> int:
        """Cycles one evaluation of ``scheme`` simulates (warmup included)."""
        dynamic = scheme in self.spec["workloads"]["dynamic"]["schemes"]
        return self.lengths.dynamic_cycles if dynamic else self.lengths.eval_cycles

    @staticmethod
    def gains(per_seed: list[dict]) -> dict[str, float]:
        """Geometric-mean PBS gains over the sub-seeds' scheme results."""
        return {
            "sim.pbs_ws_gain": geomean([r["ws"].ws / r["besttlp"].ws for r in per_seed]),
            "sim.pbs_fi_gain": geomean([r["fi"].fi / r["besttlp"].fi for r in per_seed]),
        }


class Dynamic(Workload):
    """Six online controllers, serial, in one process, no store, telemetry off."""

    name = "dynamic"

    def setup(self, seed: int) -> list[tuple]:
        n_cores = self.config.n_cores // len(self.apps)
        inputs = []
        for s in self.seeds(seed):
            alone = [
                profile_alone(self.config, app, n_cores, lengths=self.lengths, seed=s, n_jobs=1)
                for app in self.apps
            ]
            base = runner.evaluate_scheme(self.config, self.apps, "besttlp", alone, lengths=self.lengths, seed=s)
            inputs.append((s, alone, base))
        return inputs

    def prepare(self, inputs, traced: bool) -> dict:
        return {"inputs": inputs, "telemetry": self.telemetry(traced), "results": []}

    def work(self, state: dict) -> None:
        with state["telemetry"]:
            for s, alone, _base in state["inputs"]:
                for scheme in self.schemes:
                    result = runner.evaluate_scheme(
                        self.config, self.apps, scheme, alone, lengths=self.lengths, seed=s
                    )
                    runner.emit_scheme_events(result)  # telemetry off: the off path
                    state["results"].append(result)

    def finish(self, state: dict) -> dict:
        results = state["results"]
        failures = []
        for r in results:
            bad = [
                (f, getattr(sample, f))
                for samples in [r.result.samples] + [w for _t, w in r.result.windows]
                for sample in samples.values()
                for f in RATE_FIELDS
                if not 0.0 <= getattr(sample, f) <= 1.0
            ]
            if bad or not 0.0 <= r.result.dram_utilization <= 1.0:
                failures.append(f"{r.scheme}: rate outside [0, 1]: {bad[:3]}")
        per_seed = []
        n = len(self.schemes)
        for i, (_s, _alone, base) in enumerate(state["inputs"]):
            by = {r.scheme: r for r in results[i * n:(i + 1) * n]}
            per_seed.append({"besttlp": base, "ws": by["pbs-ws"], "fi": by["pbs-fi"]})
        return {
            "ops": results,
            "failures": failures,
            "sims": [r.result for r in results],
            "controlled": results,
            "sim_cycles": len(results) * self.lengths.dynamic_cycles,
            "sim_values": self.gains(per_seed),
        }


class Sweep(Workload):
    """Alone profiles, the 64-point surface and 11 static schemes from a cold store."""

    name = "sweep"

    def setup(self, seed: int) -> list[int]:
        return self.seeds(seed)

    def telemetry(self, traced: bool) -> Telemetry:
        # Pool workers cannot be sampled from the parent: the traced run
        # uses the program's own job spans (tracer) and --profile path.
        return Telemetry(self.workdir, tracer=traced, live=traced, profile=traced, engine=traced)

    def prepare(self, inputs, traced: bool) -> dict:
        contexts = []
        for s in inputs:
            store_dir = self.workdir / f"sweep-store-{s}"
            shutil.rmtree(store_dir, ignore_errors=True)
            contexts.append(self.context(s, store_dir))
        return {"contexts": contexts, "telemetry": self.telemetry(traced), "results": []}

    def work(self, state: dict) -> None:
        with state["telemetry"]:
            for ctx in state["contexts"]:
                state["results"].append(ctx.schemes(self.apps, self.schemes))

    def finish(self, state: dict) -> dict:
        failures, sims, per_seed, ops = [], [], [], []
        files = []
        for ctx, results in zip(state["contexts"], state["results"]):
            files += sorted(ctx.store.root.glob("*.json"))
            surface = ctx.surface(self.apps)  # a store hit, outside the timed region
            if len(surface) != len(TLP_LEVELS) ** len(self.apps):
                failures.append(f"seed {ctx.seed}: surface holds {len(surface)} combinations")
            for metric in ("ws", "fi", "hs"):
                best = getattr(results[f"opt-{metric}"], metric)
                for name, r in results.items():
                    if getattr(r, metric) > best:
                        failures.append(f"seed {ctx.seed}: {name} beats opt-{metric} on {metric}")
            sims += [surface[c] for c in sorted(surface)]
            ops += list(results.values())
            per_seed.append({
                "besttlp": results["besttlp"],
                "ws": results["pbs-offline-ws"],
                "fi": results["pbs-offline-fi"],
            })
        outcome = {
            "ops": ops,
            "failures": failures,
            "sims": sims,
            "controlled": [],
            "sim_cycles": len(state["contexts"]) * self.lengths.profile_cycles
            * (len(TLP_LEVELS) * len(self.apps) + len(TLP_LEVELS) ** len(self.apps)),
            "sim_values": self.gains(per_seed),
            "store_files": len(files),
            "store_bytes": sum(f.stat().st_size for f in files),
        }
        for ctx in state["contexts"]:
            shutil.rmtree(ctx.store.root, ignore_errors=True)
        return outcome


class Replay(Workload):
    """All 17 schemes re-read from a warm store with tracer and live stream on."""

    name = "replay"
    telemetry_on = True

    def setup(self, seed: int) -> list[tuple]:
        inputs = []
        for s in self.seeds(seed):
            store_dir = self.workdir / f"replay-store-{s}"
            shutil.rmtree(store_dir, ignore_errors=True)
            expected = self.context(s, store_dir).schemes(self.apps, self.schemes)
            inputs.append((s, store_dir, {k: digest(v) for k, v in expected.items()}))
        return inputs

    def prepare(self, inputs, traced: bool) -> dict:
        return {
            "contexts": [self.context(s, d) for s, d, _ in inputs],
            "expected": [e for _s, _d, e in inputs],
            "telemetry": self.telemetry(traced),
            "results": [],
        }

    def work(self, state: dict) -> None:
        with state["telemetry"]:
            for ctx in state["contexts"]:
                state["results"].append(ctx.schemes(self.apps, self.schemes))

    def finish(self, state: dict) -> dict:
        failures, ops, per_seed = [], [], []
        for expected, results in zip(state["expected"], state["results"]):
            for name, r in results.items():
                if digest(r) != expected[name]:
                    failures.append(f"{r.workload}/{name}: replay differs from the setup result")
            ops += list(results.values())
            per_seed.append({"besttlp": results["besttlp"], "ws": results["pbs-ws"], "fi": results["pbs-fi"]})
        telemetry = state["telemetry"]
        counters = telemetry.registry.counters
        misses = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith(".miss"))
        if misses:
            failures.append(f"{misses} store misses on a warm store")
        windows = sum(len(s) for r in ops for _t, s in r.result.windows)
        counter_events = sum(1 for e in telemetry.trace_events if e.ph == "C")
        if counter_events != windows:
            failures.append(f"{counter_events} trace counter events for {windows} app-windows")
        return {
            "ops": ops,
            "failures": failures,
            "sims": [r.result for r in ops],
            "controlled": [],
            "sim_cycles": sum(self.scheme_cycles(r.scheme) for r in ops),
            "sim_values": self.gains(per_seed),
        }


WORKLOADS = {w.name: w for w in (Dynamic, Sweep, Replay)}
