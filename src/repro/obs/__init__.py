"""repro.obs — structured tracing, metrics, manifests, live telemetry.

A *leaf* package: stdlib-only, imported freely from ``repro.sim``,
``repro.core``, ``repro.exec``, and ``repro.experiments`` without
creating layering violations (lint rule R004) or import cycles.  Two
modules are the exception to "freely": :mod:`repro.obs.live` and
:mod:`repro.obs.dashboard` sit *above* the simulator — they consume its
outputs — so R004 forbids ``repro.sim`` from importing them (the engine
reaches observability only through the tracer/metrics seam).

* :mod:`repro.obs.trace` — span/instant/counter events in two clock
  domains (host wall time, simulated cycles), streamed to the run's one
  JSONL event log.
* :mod:`repro.obs.metrics` — ambient counters/gauges/timers/timelines,
  with cross-process ``merge()`` for worker snapshots.
* :mod:`repro.obs.live` — the live event log: worker publishers, the
  parent-side hub that logs their messages, profiling frames.
* :mod:`repro.obs.dashboard` — live TTY dashboard / ``repro watch``.
* :mod:`repro.obs.chrome` — Chrome trace-event export for Perfetto.
* :mod:`repro.obs.manifest` — per-run provenance manifests.
* :mod:`repro.obs.summarize` — offline ``repro trace summarize``.
* :mod:`repro.obs.io` — atomic file publication and JSONL reading.
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.dashboard import Dashboard, LiveState, render_lines, watch
from repro.obs.io import JsonlAppender, atomic_write_text, read_jsonl
from repro.obs.live import (
    LiveHub,
    NullPublisher,
    QueuePublisher,
    get_publisher,
    profile_frames,
    set_publisher,
)
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    REQUIRED_FIELDS,
    RunManifest,
    config_fingerprint,
    git_revision,
    validate_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    TimelinePoint,
    get_metrics,
    set_metrics,
)
from repro.obs.summarize import (
    decision_log,
    job_stats,
    log_stats,
    resolve_trace_path,
    span_totals,
    summarize,
    summary_data,
    window_timelines,
)
from repro.obs.trace import (
    CLOCK_CYCLES,
    CLOCK_WALL,
    Event,
    NullTracer,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    Tracer,
    get_tracer,
    load_trace,
    parse_events,
    set_tracer,
    tracing,
)

__all__ = [
    "CLOCK_CYCLES",
    "CLOCK_WALL",
    "Dashboard",
    "Event",
    "JsonlAppender",
    "LiveHub",
    "LiveState",
    "MANIFEST_FILENAME",
    "MetricsRegistry",
    "NullPublisher",
    "NullTracer",
    "QueuePublisher",
    "REQUIRED_FIELDS",
    "RunManifest",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TimelinePoint",
    "Tracer",
    "atomic_write_text",
    "chrome_trace",
    "config_fingerprint",
    "decision_log",
    "get_metrics",
    "get_publisher",
    "get_tracer",
    "git_revision",
    "job_stats",
    "log_stats",
    "load_trace",
    "parse_events",
    "profile_frames",
    "read_jsonl",
    "render_lines",
    "resolve_trace_path",
    "set_metrics",
    "set_publisher",
    "set_tracer",
    "span_totals",
    "summarize",
    "summary_data",
    "validate_manifest",
    "watch",
    "window_timelines",
    "write_chrome_trace",
]
