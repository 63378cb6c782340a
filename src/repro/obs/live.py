"""Live telemetry: the run's one event log, written as the run goes.

A traced run has one event log, the JSONL ``trace.jsonl`` of
:mod:`repro.obs.trace`.  This module makes it *live*:

* **The parent records.**  Everything the parent process knows — host
  spans, window counters, controller decisions, roster changes, job
  spans, batch and failure instants — goes straight onto the ambient
  tracer, which appends each event to the log as it is recorded.
* **Workers send only what the parent cannot know.**  A
  :class:`QueuePublisher` installed in each pool worker (by
  :mod:`repro.exec.pool`'s initializer) puts three kinds of small
  message on a ``multiprocessing`` queue: ``job_start`` (job, pid),
  ``profile`` (a cProfile'd job's hot frames) and ``metrics`` (the
  worker's registry delta).  Publishing never blocks simulation: a
  full queue drops the message and counts the drop.
* **The hub turns messages into events.**  A :class:`LiveHub` owns the
  log's tracer and the queue.  Its collector thread records each
  ``job_start`` as a ``cat="job"`` instant and each hot frame as a
  ``cat="profile"`` instant, and folds ``metrics`` into the ambient
  :class:`~repro.obs.metrics.MetricsRegistry` (they are not logged: the
  run manifest's snapshot records them).  On the serial executor path
  the jobs run in the parent, so the hub's own publisher hands their
  messages to the hub directly: parent-side telemetry never crosses
  the queue.  ``close()`` appends the closing ``stream_end`` instant.
* **Readers tail the log.**  The dashboard (``--watch`` and ``repro
  watch RUN``, :mod:`repro.obs.dashboard`), ``repro trace summarize``
  and the Chrome export all read the same events.

Like tracing, live telemetry is ambient and opt-in: library code calls
:func:`get_publisher` and checks ``publisher.enabled`` — the default
:class:`NullPublisher` makes the disabled path one attribute read, the
same discipline as :class:`~repro.obs.trace.NullTracer`.  Results are
never routed through telemetry, so a traced run is byte-identical to a
silent one.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from pathlib import Path
from typing import Callable

from repro.obs.metrics import get_metrics
from repro.obs.trace import Tracer

__all__ = [
    "LiveHub",
    "NullPublisher",
    "QueuePublisher",
    "get_publisher",
    "profile_frames",
    "set_publisher",
]

#: Internal shutdown sentinel the hub sends itself; never logged.
_CLOSE_TYPE = "__close__"


# --- publishers ---------------------------------------------------------


class NullPublisher:
    """The disabled publisher: every operation is a no-op.

    Hot paths guard emission on ``publisher.enabled``, so a silent run
    pays one attribute read — the :class:`~repro.obs.trace.NullTracer`
    discipline.
    """

    enabled = False
    worker = False
    profile = False
    profile_top = 0

    def publish(self, record: dict) -> None:
        return None


class QueuePublisher:
    """Sends a pool worker's messages to the parent's :class:`LiveHub`.

    ``publish`` never blocks — a full queue drops the message, counted
    in ``dropped``: telemetry loss must never slow simulation.
    """

    enabled = True
    worker = True

    def __init__(
        self,
        channel: "queue_mod.Queue[dict]",
        *,
        profile: bool = False,
        profile_top: int = 10,
    ) -> None:
        self.channel = channel
        self.profile = profile
        self.profile_top = profile_top
        self.dropped = 0

    def worker_config(self) -> dict:
        """The profiling knobs to replicate in pool workers."""
        return {"profile": self.profile, "profile_top": self.profile_top}

    def publish(self, record: dict) -> None:
        try:
            self.channel.put_nowait(record)
        except queue_mod.Full:
            self.dropped += 1


class _HubPublisher(QueuePublisher):
    """The parent's publisher: serial-path messages go to the hub directly."""

    worker = False

    def __init__(self, hub: "LiveHub", *, profile: bool, profile_top: int) -> None:
        super().__init__(hub.queue, profile=profile, profile_top=profile_top)
        self._hub = hub

    def publish(self, record: dict) -> None:
        self._hub._handle(record)


_NULL_PUBLISHER = NullPublisher()
_PUBLISHER: NullPublisher | QueuePublisher = _NULL_PUBLISHER


def get_publisher() -> NullPublisher | QueuePublisher:
    """The ambient publisher (a shared no-op unless one is installed)."""
    return _PUBLISHER


def set_publisher(
    publisher: NullPublisher | QueuePublisher | None,
) -> NullPublisher | QueuePublisher:
    """Install ``publisher`` as the ambient one; return the previous.

    ``None`` disables (installs the shared :class:`NullPublisher`).
    Unlike ``set_tracer``/``set_metrics``, installing a publisher inside
    a pool worker is the *sanctioned* pattern — the whole point of a
    :class:`QueuePublisher` is that its messages cross the process
    boundary back to the parent.
    """
    global _PUBLISHER
    previous = _PUBLISHER
    _PUBLISHER = publisher if publisher is not None else _NULL_PUBLISHER
    return previous


def profile_frames(prof: object, top: int = 10) -> list[list]:
    """Top-``top`` hot frames of a finished cProfile run.

    Returns ``[[label, cum_s, self_s, calls], ...]`` sorted by
    cumulative time — the payload of a ``profile`` message, which the
    hub logs as one ``cat="profile"`` instant per frame.
    """
    import pstats

    stats = pstats.Stats(prof)
    rows: list[tuple[float, float, int, str]] = []
    for (filename, lineno, funcname), entry in stats.stats.items():  # type: ignore[attr-defined]
        _cc, n_calls, self_t, cum_t = entry[:4]
        if filename.startswith("<"):
            label = funcname
        else:
            label = f"{funcname} ({Path(filename).name}:{lineno})"
        rows.append((cum_t, self_t, n_calls, label))
    rows.sort(key=lambda r: (-r[0], r[3]))
    return [
        [label, round(cum_t, 6), round(self_t, 6), int(n_calls)]
        for cum_t, self_t, n_calls, label in rows[:top]
    ]


# --- the parent-side collector ------------------------------------------


class LiveHub:
    """Parent-side owner of one run's live event log.

    Opens the log at ``path`` — ``tracer``, a path-backed
    :class:`~repro.obs.trace.Tracer` to install as the ambient one —
    creates the queue pool workers send their messages on, and starts
    the collector thread that turns those messages into events.
    ``publisher`` is the parent's own publisher, to install as the
    ambient one: pool workers are configured from it, and serial-path
    jobs hand it their messages.  ``on_record`` is called with every
    message once it is logged.  ``close()`` stops the collector,
    appends the closing ``stream_end`` instant and closes the log; it
    is idempotent.
    """

    def __init__(
        self,
        run_id: str,
        path: Path,
        *,
        profile: bool = False,
        profile_top: int = 10,
        on_record: Callable[[dict], None] | None = None,
    ) -> None:
        import multiprocessing

        self.run_id = run_id
        self.path = Path(path)
        self.tracer = Tracer(run_id, self.path)
        self.queue: "queue_mod.Queue[dict]" = (
            multiprocessing.get_context().Queue()
        )
        self.publisher = _HubPublisher(
            self, profile=profile, profile_top=profile_top
        )
        self._on_record = on_record
        self._lock = threading.Lock()
        #: messages logged, and messages received but not usable
        self.records = 0
        self.dropped = 0
        self.callback_errors = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="live-collector", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        while True:
            record = self.queue.get()
            if record.get("type") == _CLOSE_TYPE:
                return
            self._handle(record)

    def _handle(self, record: dict) -> None:
        with self._lock:
            try:
                self._log(record)
            except (KeyError, TypeError, ValueError):
                self.dropped += 1
                return
            self.records += 1
        if self._on_record is not None:
            try:
                self._on_record(record)
            except Exception:
                # A consumer bug must never kill telemetry collection.
                self.callback_errors += 1

    def _log(self, record: dict) -> None:
        rtype = record["type"]
        if rtype == "job_start":
            self.tracer.instant(
                "job_start", cat="job", job=record["job"], pid=record["pid"]
            )
        elif rtype == "profile":
            for label, cum_s, self_s, calls in record["frames"]:
                self.tracer.instant(
                    f"hot:{label}",
                    cat="profile",
                    job=record["job"],
                    pid=record["pid"],
                    cum_s=cum_s,
                    self_s=self_s,
                    calls=calls,
                )
        elif rtype == "metrics":
            # Worker deltas fold into the parent's ambient registry;
            # gauges are namespaced by the worker label so two workers
            # never clobber each other.
            get_metrics().merge(record["snapshot"], label=record["label"])
        else:
            raise ValueError(f"unknown message type {rtype!r}")

    def close(self) -> Path:
        """Stop collecting, seal the log, and return its path."""
        if self._closed:
            return self.path
        self._closed = True
        self.queue.put({"type": _CLOSE_TYPE})
        self._thread.join(timeout=10)
        self.tracer.instant(
            "stream_end", cat="log", records=self.records, dropped=self.dropped
        )
        self.tracer.close()
        self.queue.close()
        return self.path

    def __enter__(self) -> "LiveHub":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
