"""Per-layer attribution for the traced benchmark run, from outside the program.

Two stdlib mechanisms, both confined to the traced run:

* :class:`SpanRecorder` wraps the program's public entry points (the
  Simulator, the runner, the controllers, the offline searches, the
  process pool, the experiment context and its result store, and the
  telemetry seam) and keeps an in-memory span per call: name, layer,
  start, end, parent and run id.  A layer's self time is its spans'
  time minus the time of their child spans.
* :class:`Sampler` is a ``signal.setitimer(ITIMER_PROF)`` sampling
  profiler.  Each tick maps the interrupted stack's innermost program
  frame to a layer, which prices the hot layers (engine dispatch, DRAM,
  stream generation) that a per-call span would distort.

Frames from pool workers cannot be sampled (an interval timer does not
survive ``fork``); :func:`layer_seconds_from_profiles` folds the
program's own ``--profile`` cProfile records of worker jobs into the
same layers instead.
"""

from __future__ import annotations

import functools
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

#: Layer of each module under ``src/repro`` (longest prefix wins).
_MODULE_LAYERS = (
    ("sim/engine", "sim.engine"),
    ("sim/dram", "sim.dram"),
    ("sim/cache", "sim.cache"),
    ("sim/interconnect", "sim.cache"),
    ("sim/stats", "sim.stats"),
    ("sim/", "sim.engine"),
    ("workloads/", "workloads.synthetic"),
    ("core/offline", "core.offline"),
    ("core/splitsearch", "core.offline"),
    ("core/", "core"),
    ("metrics/", "core"),
    ("exec/", "exec.pool"),
    ("experiments/", "experiments.common"),
    ("obs/", "obs"),
)

#: Functions whose time belongs to another layer than their module's:
#: the engine's DRAM hand-off/completion path, and the synthetic
#: request stream inside the workload module.
_FUNCTION_LAYERS = {
    ("sim/engine", "_to_dram"): "sim.dram",
    ("sim/engine", "_dram_done"): "sim.dram",
    ("sim/engine", "_drain_dram_deferred"): "sim.dram",
    ("workloads/synthetic", "next_request"): "workloads.stream",
    ("workloads/synthetic", "_one_line"): "workloads.stream",
}

UNATTRIBUTED = "unattributed"


def layer_of(module: str, function: str) -> str:
    """Layer of ``function`` in ``module`` (a path below ``repro/``, no suffix)."""
    special = _FUNCTION_LAYERS.get((module, function))
    if special is not None:
        return special
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "repro"


class LayerMap:
    """Maps code objects and cProfile labels to layers, with caches."""

    def __init__(self, src: Path) -> None:
        self._repro = str(src / "repro") + "/"
        self._by_code: dict[object, str | None] = {}
        self._by_def = self._index_definitions(src / "repro")

    def code_layer(self, code) -> str | None:
        """Layer of a code object, or None for code outside the program."""
        try:
            return self._by_code[code]
        except KeyError:
            pass
        filename = code.co_filename
        layer = None
        if filename.startswith(self._repro):
            module = filename[len(self._repro):].removesuffix(".py")
            layer = layer_of(module, code.co_name)
        self._by_code[code] = layer
        return layer

    def frame_layer(self, frame) -> str:
        """Layer of the innermost program frame of a stack (none: unattributed)."""
        while frame is not None:
            layer = self.code_layer(frame.f_code)
            if layer is not None:
                return layer
            frame = frame.f_back
        return UNATTRIBUTED

    def label_module(self, label: str) -> tuple[str | None, str]:
        """(module, function) of a cProfile label ``"func (file.py:line)"``."""
        func, _, where = label.rpartition(" (")
        return self._by_def.get((where.rstrip(")"), func)), func

    def label_layer(self, label: str) -> str:
        module, func = self.label_module(label)
        return UNATTRIBUTED if module is None else layer_of(module, func)

    @staticmethod
    def _index_definitions(root: Path) -> dict[tuple[str, str], str]:
        """(``file.py:firstline``, function) -> module, for every function."""
        index: dict[tuple[str, str], str] = {}
        for path in sorted(root.rglob("*.py")):
            module = str(path.relative_to(root)).removesuffix(".py")
            stack = [compile(path.read_text(), str(path), "exec")]
            while stack:
                code = stack.pop()
                index[(f"{path.name}:{code.co_firstlineno}", code.co_name)] = module
                stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        return index


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Sampler:
    """ITIMER_PROF sampling profiler that counts ticks per layer."""

    def __init__(self, layers: LayerMap, interval_s: float = 0.001) -> None:
        self.layers = layers
        self.interval_s = interval_s
        self.counts: Counter[str] = Counter()
        self.cpu_s = 0.0
        self._cpu0 = 0.0

    def _tick(self, _signum, frame) -> None:
        self.counts[self.layers.frame_layer(frame)] += 1

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        self._cpu0 = cpu_seconds()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # Ignore, not default: a tick still pending would otherwise
        # terminate the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.cpu_s += cpu_seconds() - self._cpu0

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def layer_seconds(self) -> dict[str, float]:
        """CPU seconds per layer: each layer's share of ticks times CPU time."""
        total = self.samples
        if not total:
            return {}
        return {layer: self.cpu_s * n / total for layer, n in self.counts.items()}


def layer_seconds_from_profiles(records: list[dict], layers: LayerMap) -> dict[str, float]:
    """Self seconds per layer from the program's cProfile ``profile`` records."""
    out: Counter[str] = Counter()
    for record in records:
        for label, _cum_s, self_s, _calls in record["frames"]:
            out[layers.label_layer(label)] += self_s
    return dict(out)


def cum_seconds_from_profiles(
    records: list[dict], layers: LayerMap, module: str, functions: set[str]
) -> float:
    """Summed cumulative seconds of ``module``'s named functions in cProfile records."""
    total = 0.0
    for record in records:
        for label, cum_s, _self_s, _calls in record["frames"]:
            found, func = layers.label_module(label)
            if found == module and func in functions:
                total += cum_s
    return total


class SpanRecorder:
    """In-memory spans around calls into the program's public entry points.

    ``patch`` replaces a function or method wherever the program holds a
    reference to it (modules that imported it by name included);
    ``restore`` puts every original back.  Spans are tuples
    ``(name, layer, start, end, parent, run_id)`` with ``parent`` the
    index of the enclosing span (-1 at top level).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run_id))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end) + spans[index][4:]

        return wrapper

    def patch_method(self, cls: type, attr: str, name: str, layer: str) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, layer))

    def patch_function(self, module, attr: str, name: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, layer)
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro") and (
                holder.__dict__.get(attr) is original
            ):
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # --- reading -----------------------------------------------------------

    def self_seconds(self, run_id: int) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children's."""
        spans = self.spans
        child_time: Counter[int] = Counter()
        for s in spans:
            if s[5] == run_id and s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        out: Counter[str] = Counter()
        for i, s in enumerate(spans):
            if s[5] == run_id:
                out[s[0]] += (s[3] - s[2]) - child_time[i]
        return dict(out)

    def seconds(self, run_id: int) -> Counter:
        """Summed duration per span name for one run."""
        out: Counter[str] = Counter()
        for s in self.spans:
            if s[5] == run_id:
                out[s[0]] += s[3] - s[2]
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "layer": l, "start": a, "end": b, "parent": p, "run": r}
            for n, l, a, b, p, r in self.spans
        ]


def instrument(recorder: SpanRecorder, store_reads: list[int]) -> None:
    """Wrap every public entry point the benchmark attributes time to.

    ``store_reads`` receives the size in bytes of each store entry the
    parent process loads.
    """
    from repro.core import offline, runner
    from repro.core.ccws import CCWSController
    from repro.core.dyncta import DynCTAController
    from repro.core.modbypass import ModBypassController
    from repro.core.pbs import PBSController
    from repro.exec import pool
    from repro.experiments.common import ExperimentContext, ResultStore
    from repro.sim.engine import Simulator

    recorder.patch_method(Simulator, "__init__", "sim.construct", "sim.engine")
    recorder.patch_method(Simulator, "run", "sim.run", "sim.engine")
    for fn in ("run_combo", "evaluate_scheme"):
        recorder.patch_function(runner, fn, f"core.{fn}", "core")
    recorder.patch_function(runner, "emit_scheme_events", "obs.emit", "obs")
    for cls in (DynCTAController, CCWSController, ModBypassController, PBSController):
        for attr in ("start", "on_window"):
            if attr in cls.__dict__:
                recorder.patch_method(cls, attr, f"core.ctrl.{attr}", "core")
    for fn in ("sampled_scale", "brute_force_search", "oracle_search", "pbs_offline_search"):
        recorder.patch_function(offline, fn, "core.offline.search", "core.offline")
    recorder.patch_function(pool, "run_jobs", "exec.run_jobs", "exec.pool")
    for attr in ("alone_for", "surface", "scheme", "schemes"):
        recorder.patch_method(ExperimentContext, attr, f"experiments.{attr}", "experiments.common")
    recorder.patch_method(ResultStore, "load", "store.load", "experiments.common")
    timed_load = ResultStore.load

    def load(store, kind, key):
        data = timed_load(store, kind, key)
        if data is not None:
            store_reads.append((store.root / f"{kind}-{key}.json").stat().st_size)
        return data

    ResultStore.load = load
    recorder.patch_method(ResultStore, "save", "store.save", "experiments.common")
