"""Span-based structured tracing with two clock domains.

One :class:`Tracer` collects every event of a run:

* **host-layer** events (CLI phases, sweep jobs, scheme evaluations) are
  stamped in *wall-clock microseconds* since the tracer was created;
* **sim-layer** events (per-window EB/BW/CMR counters, PBS decisions,
  probe samples) are stamped in *simulated cycles* — they come out of
  deterministic simulation state, so traced runs stay byte-identical to
  untraced ones (lint rule R014).

The span hierarchy mirrors the execution structure::

    run -> experiment/phase -> scheme -> window -> job

A tracer given a ``path`` is the run's one event log: the schema header
goes out at creation and every event is appended as one complete,
flushed JSONL line the moment it is recorded, so ``repro watch`` can
tail the log while the run is still going.  The log exports to the
Chrome trace-event format (:mod:`repro.obs.chrome`) so a run opens
directly in Perfetto.

Tracing is opt-in and ambient: library code calls :func:`get_tracer`,
which returns a shared :class:`NullTracer` unless a real tracer was
installed with :func:`set_tracer` / the :func:`tracing` context manager.
Every hook in the hot paths is gated on ``tracer.enabled``, so the
disabled path costs one attribute read.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Number
from pathlib import Path
from typing import Iterator

from repro.obs.io import JsonlAppender, read_jsonl
from repro.units import TraceTicks, WallMicroseconds, WallSeconds

__all__ = [
    "CLOCK_CYCLES",
    "CLOCK_WALL",
    "Event",
    "NullTracer",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "get_tracer",
    "load_trace",
    "parse_events",
    "set_tracer",
    "tracing",
]

#: Schema identifier written as the first JSONL line of every trace.
TRACE_SCHEMA = "repro.obs.trace"
TRACE_SCHEMA_VERSION = 2

CLOCK_WALL = "wall"
CLOCK_CYCLES = "cycles"

#: Chrome trace-event phase codes used here: complete span, instant,
#: counter.
_PHASES = ("X", "i", "C")


@dataclass
class Event:
    """One trace event.

    ``ts`` (and ``dur`` for spans) are microseconds for ``clock="wall"``
    and simulated cycles for ``clock="cycles"``.  ``args`` holds
    arbitrary JSON-serializable detail; counter events (``ph="C"``)
    keep their numeric series there.
    """

    name: str
    cat: str
    ph: str  # "X" complete span | "i" instant | "C" counter
    ts: TraceTicks
    clock: str = CLOCK_WALL
    dur: TraceTicks = 0.0
    tid: int = 0
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "clock": self.clock,
            "tid": self.tid,
        }
        if self.ph == "X":
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        return cls(
            name=d["name"],
            cat=d["cat"],
            ph=d["ph"],
            ts=d["ts"],
            clock=d.get("clock", CLOCK_WALL),
            dur=d.get("dur", 0.0),
            tid=d.get("tid", 0),
            args=d.get("args", {}),
        )


class Tracer:
    """Collects :class:`Event` records for one run.

    Wall-clock spans are measured with ``time.perf_counter`` *inside
    this module* — callers in the simulation layers never read the
    clock themselves, which keeps them R014-clean.

    With a ``path`` the tracer also streams every event to that JSONL
    log as it is recorded.  Events may come from several threads (the
    live hub's collector records worker messages); one lock keeps the
    in-memory list and the log in the same order and the lines whole.
    A forked pool worker inherits a copy of the ambient tracer: only
    the process that created the tracer records, so a child never
    writes into the parent's log or waits on a lock copied mid-write.
    """

    enabled = True

    def __init__(self, run_id: str = "run", path: Path | None = None) -> None:
        self.run_id = run_id
        self.events: list[Event] = []
        self._origin: WallSeconds = time.perf_counter()
        self._depth = 0
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._sink: JsonlAppender | None = None
        if path is not None:
            self._sink = JsonlAppender(Path(path), mode="w")
            self._sink.append(self.header())

    def _record(self, event: Event) -> None:
        if os.getpid() != self._pid:
            return
        with self._lock:
            self.events.append(event)
            if self._sink is not None:
                self._sink.append(event.to_dict())

    def close(self) -> None:
        """Stop streaming to the log (recording in memory continues)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    # --- clocks --------------------------------------------------------

    def now_us(self) -> WallMicroseconds:
        """Microseconds of wall time since the tracer was created."""
        return (time.perf_counter() - self._origin) * 1e6

    # --- emission ------------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "host", **args: object) -> Iterator[None]:
        """A wall-clock span around a ``with`` block.

        Nested spans record their nesting depth as ``tid`` so the
        summarizer can tell phases (depth 0) from sub-steps.
        """
        start = self.now_us()
        depth = self._depth
        self._depth += 1
        try:
            yield
        finally:
            self._depth = depth
            self._record(
                Event(
                    name=name,
                    cat=cat,
                    ph="X",
                    ts=start,
                    clock=CLOCK_WALL,
                    dur=self.now_us() - start,
                    tid=depth,
                    args=dict(args),
                )
            )

    def complete(
        self,
        name: str,
        ts: TraceTicks,
        dur: TraceTicks,
        *,
        cat: str = "host",
        clock: str = CLOCK_WALL,
        tid: int = 0,
        **args: object,
    ) -> None:
        """Record a pre-stamped span (e.g. a pool job timed elsewhere)."""
        self._record(
            Event(name=name, cat=cat, ph="X", ts=ts, clock=clock,
                  dur=dur, tid=tid, args=dict(args))
        )

    def instant(
        self,
        name: str,
        *,
        cat: str = "host",
        clock: str = CLOCK_WALL,
        ts: TraceTicks | None = None,
        **args: object,
    ) -> None:
        """Record a point event (wall-stamped unless ``ts`` is given)."""
        self._record(
            Event(
                name=name,
                cat=cat,
                ph="i",
                ts=self.now_us() if ts is None else ts,
                clock=clock,
                args=dict(args),
            )
        )

    def counter(
        self,
        name: str,
        values: dict,
        *,
        ts: TraceTicks,
        cat: str = "sim",
        clock: str = CLOCK_CYCLES,
    ) -> None:
        """Record one sample of a (multi-)series counter."""
        self._record(
            Event(name=name, cat=cat, ph="C", ts=ts, clock=clock,
                  args=dict(values))
        )

    def header(self) -> dict:
        """The schema header: the first line of the event log."""
        return {
            "schema": TRACE_SCHEMA,
            "version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
        }

    # --- aggregation ---------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Wall time per top-level (depth-0) span name.

        Returns ``{name: {"count": n, "total_s": seconds}}`` — the
        per-phase timing block of the run manifest.
        """
        totals: dict[str, dict[str, float]] = {}
        for e in self.events:
            if e.ph != "X" or e.clock != CLOCK_WALL or e.tid != 0:
                continue
            if e.cat == "job":  # jobs are duration-stamped, not nested
                continue
            slot = totals.setdefault(e.name, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += e.dur / 1e6
        return totals


class _NullSpan:
    """Reusable do-nothing context manager."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths additionally guard bulk emission on ``tracer.enabled``,
    so a disabled run never materializes event payloads at all.
    """

    enabled = False
    run_id = ""

    def now_us(self) -> WallMicroseconds:
        return 0.0

    def span(self, name: str, cat: str = "host", **args: object) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, *a: object, **k: object) -> None:
        return None

    def instant(self, *a: object, **k: object) -> None:
        return None

    def counter(self, *a: object, **k: object) -> None:
        return None

    def phase_totals(self) -> dict:
        return {}


_NULL_TRACER = NullTracer()
_TRACER: Tracer | NullTracer = _NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer (a shared :class:`NullTracer` when disabled)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` as the ambient tracer (``None`` disables)."""
    global _TRACER
    _TRACER = tracer if tracer is not None else _NULL_TRACER


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = _TRACER
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def parse_events(records: list[dict]) -> tuple[dict, list[Event]]:
    """Split parsed JSONL records into (header, events), validating both."""
    if not records:
        raise ValueError("empty trace: missing schema header")
    header = records[0]
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a repro.obs trace (header schema {header.get('schema')!r})"
        )
    if header.get("version") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    events = []
    for i, record in enumerate(records[1:], start=2):
        try:
            event = Event.from_dict(record)
        except KeyError as exc:
            raise ValueError(f"trace line {i}: missing field {exc}") from exc
        if event.ph not in _PHASES:
            raise ValueError(f"trace line {i}: unknown phase {event.ph!r}")
        if event.clock not in (CLOCK_WALL, CLOCK_CYCLES):
            raise ValueError(f"trace line {i}: unknown clock {event.clock!r}")
        for name in ("ts", "dur"):
            value = getattr(event, name)
            # bool subclasses int; a ts of True is a producer bug
            if not isinstance(value, Number) or isinstance(value, bool):
                raise ValueError(f"trace line {i}: {name} is not a number")
        if not isinstance(event.args, dict):
            raise ValueError(f"trace line {i}: args is not an object")
        events.append(event)
    return header, events


def load_trace(path: Path) -> tuple[dict, list[Event]]:
    """Read and validate a JSONL trace file."""
    return parse_events(read_jsonl(Path(path)))
