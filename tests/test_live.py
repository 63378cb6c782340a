"""Tests for live telemetry: the one event log, written as the run goes.

Covers the log's schema (every live record type has its event form),
the publisher discipline (NullPublisher is one attribute read;
QueuePublisher never blocks; the parent's messages never cross the
queue), the LiveHub that turns worker messages into log events, the
result-to-events seam, the dashboard state machine and its TTY/non-TTY
renderers, the watch log tailer, the profiled-run Chrome routing, and
the invariant everything hangs on: telemetry on or off, simulation
results are identical.
"""

from __future__ import annotations

import cProfile
import io
import json
import queue
from types import SimpleNamespace

import pytest

from repro.obs import (
    CLOCK_CYCLES,
    Event,
    MetricsRegistry,
    TRACE_SCHEMA,
    Tracer,
    chrome_trace,
    load_trace,
    parse_events,
    set_metrics,
    tracing,
)
from repro.obs.dashboard import Dashboard, LiveState, render_lines, watch
from repro.obs.io import JsonlAppender
from repro.obs.live import (
    LiveHub,
    NullPublisher,
    QueuePublisher,
    get_publisher,
    profile_frames,
    set_publisher,
)


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fresh_metrics():
    """Swap in an isolated ambient registry for the test."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def _header(run_id: str = "r") -> dict:
    return {"schema": TRACE_SCHEMA, "version": 2, "run_id": run_id}


def _window(app: int = 0, scheme: str = "pbs-ws", ts: float = 800.0) -> Event:
    return Event(
        name=f"BLK_TRD|{scheme}|app{app}", cat="window", ph="C", ts=ts,
        clock=CLOCK_CYCLES,
        args={"eb": 0.41, "bw": 0.32, "cmr": 0.78, "ipc": 1.23},
    )


def _instant(name: str, cat: str, ts: float = 0.0, **args) -> Event:
    return Event(name=name, cat=cat, ph="i", ts=ts, args=args)


def _job(name: str, ts: float, dur: float, worker: object = 1) -> Event:
    return Event(name=name, cat="job", ph="X", ts=ts, dur=dur,
                 args={"worker": worker, "queue_wait_s": 0.0})


#: The event form of every live record type (heartbeats are gone and
#: metrics are merged into the registry, not logged).
def _live_events() -> dict[str, Event]:
    return {
        "window": _window(),
        "decision": Event(
            name="pbs.sample", cat="pbs", ph="i", ts=800.0,
            clock=CLOCK_CYCLES,
            args={"workload": "BLK_TRD", "scheme": "pbs-ws",
                  "combo": [8, 2], "objective": 1.5},
        ),
        "tenancy": Event(
            name="tenancy.attach", cat="tenancy", ph="i", ts=29500.0,
            clock=CLOCK_CYCLES,
            args={"workload": "two-phase", "scheme": "pbs-ws",
                  "event": "attach", "app": 2, "abbr": "LUD",
                  "roster": [0, 1, 2], "cores": [3, 3, 2]},
        ),
        "batch": _instant("batch", "exec", total=8),
        "job_start": _instant("job_start", "job", job="job:alone/BLK/8",
                              pid=11),
        "job_done": _job("job:alone/BLK/8", 10.0, 250.0, worker=11),
        "job_fail": _instant("job_fail", "job", job="job:alone/BLK/8",
                             pid=12, error="ValueError: boom"),
        "profile": _instant("hot:run (engine.py:1)", "profile", job="x",
                            pid=11, cum_s=0.5, self_s=0.1, calls=42),
        "stream_end": _instant("stream_end", "log", records=9, dropped=0),
    }


# --- schema -------------------------------------------------------------------


class TestLiveSchema:
    def test_every_record_type_has_a_valid_example(self):
        events = _live_events()
        assert set(events) == {
            "window", "decision", "tenancy", "batch", "job_start",
            "job_done", "job_fail", "profile", "stream_end",
        }
        records = [_header()] + [e.to_dict() for e in events.values()]
        _, parsed = parse_events(json.loads(json.dumps(records)))
        assert parsed == list(events.values())
        # window samples are the only counters
        assert [e.cat for e in parsed if e.ph == "C"] == ["window"]

    def test_extra_fields_are_allowed(self):
        record = {**_instant("batch", "exec", total=1).to_dict(),
                  "note": "producer annotation"}
        (event,) = parse_events([_header(), record])[1]
        assert event.args == {"total": 1}

    def test_unknown_type_rejected(self):
        record = {**_window().to_dict(), "ph": "B"}
        with pytest.raises(ValueError, match="unknown phase 'B'"):
            parse_events([_header(), record])

    def test_missing_field_reported(self):
        record = _window().to_dict()
        del record["ts"]
        with pytest.raises(ValueError, match="line 2: missing field 'ts'"):
            parse_events([_header(), record])

    def test_bool_is_not_an_int(self):
        # bool subclasses int; a timestamp of True is a producer bug.
        record = {**_window().to_dict(), "ts": True}
        with pytest.raises(ValueError, match="ts is not a number"):
            parse_events([_header(), record])
        with pytest.raises(ValueError, match="args is not an object"):
            parse_events([_header(), {**_window().to_dict(), "args": [1]}])

    def test_parse_live_validates_header_and_lines(self):
        ok_header, events = parse_events([_header("r1")])
        assert ok_header["run_id"] == "r1" and events == []
        with pytest.raises(ValueError, match="empty trace"):
            parse_events([])
        with pytest.raises(ValueError, match="not a repro.obs trace"):
            parse_events([{"schema": "repro.obs.live", "version": 1}])
        with pytest.raises(ValueError, match="version"):
            parse_events([{**_header(), "version": 1}])  # the v1 dump

    def test_load_live_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer("r2", path)
        tracer.counter("BLK_TRD|pbs-ws|app0", {"eb": 0.4, "ipc": 1.2}, ts=800.0,
                       cat="window")
        tracer.instant("pbs.sample", cat="pbs", clock=CLOCK_CYCLES, ts=800.0,
                       combo=[8, 2])
        tracer.complete("job:a", ts=1.0, dur=2.0, cat="job", worker=3)
        # streamed as recorded: readable before the tracer is closed
        header, events = load_trace(path)
        assert header["run_id"] == "r2" and header["version"] == 2
        assert events == tracer.events
        tracer.close()
        tracer.instant("after-close")  # kept in memory, not logged
        assert load_trace(path)[1] == tracer.events[:-1]


# --- publishers ---------------------------------------------------------------


class TestPublishers:
    def test_null_publisher_is_the_ambient_default(self):
        publisher = get_publisher()
        assert isinstance(publisher, NullPublisher)
        assert publisher.enabled is False
        assert publisher.worker is False and publisher.profile is False
        publisher.publish({"type": "job_start", "job": "a", "pid": 1})

    def test_set_publisher_install_and_disable(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q)
        previous = set_publisher(publisher)
        try:
            assert isinstance(previous, NullPublisher)
            assert get_publisher() is publisher
        finally:
            assert set_publisher(None) is publisher
        assert isinstance(get_publisher(), NullPublisher)

    def test_publish_puts_the_message_on_the_queue(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q)
        publisher.publish({"type": "job_start", "job": "a", "pid": 2})
        assert q.get_nowait() == {"type": "job_start", "job": "a", "pid": 2}
        assert publisher.worker and publisher.dropped == 0

    def test_full_queue_drops_instead_of_blocking(self):
        q: "queue.Queue[dict]" = queue.Queue(maxsize=1)
        publisher = QueuePublisher(q)
        publisher.publish({"type": "job_start", "job": "a", "pid": 1})
        publisher.publish({"type": "job_start", "job": "b", "pid": 1})
        assert publisher.dropped == 1
        assert q.get_nowait()["job"] == "a"

    def test_worker_config_round_trips_the_knobs(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, profile=True, profile_top=5)
        clone = QueuePublisher(q, **publisher.worker_config())
        assert clone.profile and clone.profile_top == 5

    def test_parent_messages_never_cross_the_queue(
        self, tmp_path, fresh_metrics
    ):
        hub = LiveHub("run-p", tmp_path / "trace.jsonl")
        assert hub.publisher.enabled and not hub.publisher.worker
        hub.publisher.publish({"type": "job_start", "job": "a", "pid": 3})
        # handled synchronously, before the collector ever sees it
        (event,) = hub.tracer.events
        assert event.name == "job_start" and event.args["pid"] == 3
        assert hub.queue.empty()
        hub.close()


# --- result to events ---------------------------------------------------------


def _scheme_result(n_windows: int = 1):
    sample = SimpleNamespace(eb=0.5, bw=0.4, cmr=0.8, ipc=1.25)
    windows = [(1000.0 * (i + 1), {0: sample}) for i in range(n_windows)]
    return SimpleNamespace(
        workload="BLK_TRD",
        scheme="pbs-ws",
        result=SimpleNamespace(windows=windows, roster=[]),
        decisions=[{"kind": "sample", "cycle": 900.0, "combo": [8, 2],
                    "objective": 1.5}],
    )


class TestResultRecords:
    def test_scheme_result_yields_labelled_windows_and_decisions(self):
        from repro.core.runner import emit_scheme_events

        tracer = Tracer("t")
        emit_scheme_events(_scheme_result(), tracer)
        window, decision = tracer.events
        assert window.name == "BLK_TRD|pbs-ws|app0" and window.ph == "C"
        assert window.ts == 1000.0 and window.clock == CLOCK_CYCLES
        assert window.args == {"eb": 0.5, "bw": 0.4, "cmr": 0.8, "ipc": 1.25}
        # decisions keep their full detail
        assert decision.name == "pbs.sample" and decision.ts == 900.0
        assert decision.args == {"workload": "BLK_TRD", "scheme": "pbs-ws",
                                 "combo": [8, 2], "objective": 1.5}

    def test_bare_sim_result_labelled_from_tag(self):
        from repro.core.runner import emit_job_events

        sample = SimpleNamespace(eb=0.1, bw=0.2, cmr=0.5, ipc=0.7)
        result = SimpleNamespace(windows=[(500.0, {1: sample})], roster=[])
        jobs = [
            SimpleNamespace(tag=("alone", "BLK", 8), combo=(8,)),
            SimpleNamespace(tag=("surface", "BLK_TRD", (4, 16)), combo=(4, 16)),
        ]
        tracer = Tracer("t")
        with tracing(tracer):
            emit_job_events(jobs, [result, result])
        assert [e.name for e in tracer.events] == [
            "BLK|alone@8|app1", "BLK_TRD|surface@4x16|app1",
        ]
        assert tracer.events[0].args["ipc"] == 0.7

    def test_every_window_sample_is_one_counter(self):
        from repro.core.runner import emit_scheme_events

        tracer = Tracer("t")
        emit_scheme_events(_scheme_result(100), tracer)
        counters = [e for e in tracer.events if e.ph == "C"]
        assert [e.ts for e in counters] == [1000.0 * (i + 1) for i in range(100)]


class TestProfileFrames:
    def test_top_frames_sorted_by_cumulative_time(self):
        def busy():
            return sum(i * i for i in range(20_000))

        prof = cProfile.Profile()
        prof.runcall(busy)
        frames = profile_frames(prof, top=3)
        assert 0 < len(frames) <= 3
        for label, cum_s, self_s, calls in frames:
            assert isinstance(label, str) and isinstance(calls, int)
            assert cum_s >= 0.0 and self_s >= 0.0
        cums = [frame[1] for frame in frames]
        assert cums == sorted(cums, reverse=True)


# --- the hub ------------------------------------------------------------------


class TestLiveHub:
    def test_collects_validates_and_seals_the_stream(
        self, tmp_path, fresh_metrics
    ):
        seen: list[dict] = []
        hub = LiveHub(
            "run-1", tmp_path / "trace.jsonl", on_record=seen.append
        )
        # messages from a pool worker arrive over the queue
        worker = QueuePublisher(hub.queue)
        worker.publish({"type": "job_start", "job": "a", "pid": 1})
        worker.publish({"type": "bogus"})  # unusable: counted, dropped
        worker.publish(
            {"type": "metrics", "label": "pid9",
             "snapshot": {"counters": {"sim.runs": 2},
                          "gauges": {"engine.wheel.high_water": 7.0}}}
        )
        path = hub.close()

        header, events = load_trace(path)
        assert header == Tracer("run-1").header()
        assert [e.name for e in events] == ["job_start", "stream_end"]
        end = events[-1]
        assert end.cat == "log" and end.args == {"records": 2, "dropped": 1}
        # worker metrics folded into the ambient registry, pid-labelled,
        # and not logged
        assert fresh_metrics.counters["sim.runs"] == 2
        assert fresh_metrics.gauges["engine.wheel.high_water@pid9"] == 7.0
        # the on_record callback saw every usable message
        assert [r["type"] for r in seen] == ["job_start", "metrics"]

    def test_profile_records_become_tracer_instants(
        self, tmp_path, fresh_metrics
    ):
        hub = LiveHub("run-2", tmp_path / "trace.jsonl", profile=True)
        hub.publisher.publish(
            {"type": "profile", "job": "alone BLK 8", "pid": 5,
             "frames": [["step (engine.py:10)", 0.9, 0.4, 120]]}
        )
        hub.close()
        (instant,) = [e for e in load_trace(hub.path)[1] if e.cat == "profile"]
        assert instant.name == "hot:step (engine.py:10)"
        assert instant.args["cum_s"] == 0.9 and instant.args["calls"] == 120
        assert instant.args["pid"] == 5

    def test_close_is_idempotent(self, tmp_path, fresh_metrics):
        hub = LiveHub("run-3", tmp_path / "trace.jsonl")
        assert hub.close() == hub.close()
        _, events = load_trace(hub.path)
        assert [e.name for e in events] == ["stream_end"]

    def test_callback_errors_never_kill_collection(
        self, tmp_path, fresh_metrics
    ):
        def explode(record: dict) -> None:
            raise RuntimeError("dashboard bug")

        hub = LiveHub("run-4", tmp_path / "trace.jsonl", on_record=explode)
        hub.publisher.publish({"type": "job_start", "job": "a", "pid": 1})
        QueuePublisher(hub.queue).publish(
            {"type": "job_start", "job": "b", "pid": 2}
        )
        hub.close()
        assert hub.callback_errors == 2
        _, events = load_trace(hub.path)
        assert [e.name for e in events] == [
            "job_start", "job_start", "stream_end",
        ]


# --- dashboard state ----------------------------------------------------------


class TestLiveState:
    def test_batches_accumulate_and_lifecycle_tracks_workers(self):
        state = LiveState()
        state.apply(_instant("batch", "exec", total=3))
        state.apply(_instant("batch", "exec", total=2))
        assert state.total == 5 and state.batches == 2
        state.apply(_instant("job_start", "job", job="a", pid=10))
        state.apply(_instant("job_start", "job", job="b", pid=11))
        assert state.active == {10: "a", 11: "b"}
        assert state.queue_depth() == 3
        state.apply(_job("a", 0.0, 1e6, worker=10))
        state.apply(_instant("job_fail", "job", job="b", pid=11,
                             error="boom"))
        assert state.done == 1 and state.failed == 1
        assert state.workers == {10, 11} and state.active == {}
        assert state.last_error == "b: boom"
        state.apply(_instant("stream_end", "log", records=6, dropped=0))
        assert state.ended

    def test_rate_and_eta_from_completion_span(self):
        state = LiveState()
        state.apply(_instant("batch", "exec", total=10))
        # job a ran 0..2s, job b 2..4s (log microseconds)
        state.apply(_job("a", 0.0, 2e6))
        state.apply(_job("b", 2e6, 2e6))
        assert state.jobs_per_sec() == pytest.approx(0.5)  # 2 jobs / 4s
        assert state.eta_s() == pytest.approx(16.0)  # 8 remaining / 0.5
        assert state.queue_depth() == 8

    def test_no_rate_before_first_completion(self):
        state = LiveState()
        state.apply(_instant("batch", "exec", total=4))
        assert state.jobs_per_sec() == 0.0 and state.eta_s() is None


class TestRenderLines:
    def test_head_series_and_totals(self):
        state = LiveState()
        state.run_id = "compare-1"
        state.apply(_instant("batch", "exec", total=4))
        state.apply(_window(0, ts=1600.0))
        state.apply(_live_events()["decision"])
        lines = render_lines(state)
        assert lines[0].startswith("live compare-1 — jobs 0/4")
        series = [ln for ln in lines if "app0" in ln]
        assert series and "IPC 1.230" in series[0] and "EB 0.410" in series[0]
        assert "@     1600" in series[0]
        assert "decisions 1" in lines[-1]
        assert "last pbs-ws.sample @800" in lines[-1]

    def test_many_series_elide_and_failures_show(self):
        state = LiveState()
        for i in range(12):
            state.apply(_window(0, scheme=f"s{i:02d}"))
        state.apply(_instant("job_fail", "job", job="x", pid=1,
                             error="ValueError"))
        lines = render_lines(state)
        assert any("... 4 more series" in ln for ln in lines)
        assert lines[-1].startswith("  FAIL x: ValueError")


class TestDashboard:
    def _events(self) -> list[Event]:
        return [
            _instant("batch", "exec", total=2),
            _instant("job_start", "job", job="a", pid=1),
            _job("a", 0.0, 0.5e6),
            _job("b", 0.5e6, 0.5e6),
            _instant("stream_end", "log", records=4, dropped=0),
        ]

    def test_tty_repaints_in_place_with_throttle(self):
        clock = FakeClock()
        stream = FakeTTY()
        dash = Dashboard(stream, run_id="r", min_interval_s=0.25, clock=clock)
        events = self._events()
        dash.on_event(events[0])  # first render is immediate
        dash.on_event(events[1])  # within the interval: folded, no redraw
        assert dash.renders == 1
        clock.advance(0.3)
        dash.on_event(events[2])  # past the interval: redraw
        assert dash.renders == 2
        dash.on_event(events[4])  # stream_end always renders
        assert dash.renders == 3
        out = stream.getvalue()
        assert out.count("\x1b[") >= 2  # in-place rewrites after frame 1
        assert "jobs 1/2" in out and "[done]" in out

    def test_non_tty_degrades_to_plain_lines(self):
        stream = io.StringIO()
        dash = Dashboard(stream, run_id="r", clock=FakeClock())
        for event in self._events():
            dash.on_event(event)
        dash.on_event(_instant("job_fail", "job", job="c", pid=1,
                               error="boom"))
        out = stream.getvalue()
        assert "\x1b[" not in out and dash.renders == 0
        assert "[1/2] a (0.5s, worker 1)" in out
        assert "stream end: 2 done, 0 failed" in out
        assert "FAIL c: boom" in out


class TestWatch:
    def _write_log(self, path, *, end: bool = True) -> None:
        with JsonlAppender(path) as sink:
            sink.append(_header("run-w"))
            sink.append(_instant("batch", "exec", total=1).to_dict())
            sink.append(_job("a", 0.0, 0.5e6).to_dict())
            if end:
                sink.append(
                    _instant("stream_end", "log", records=2, dropped=0).to_dict()
                )

    def test_replays_a_finished_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_log(path)
        stream = io.StringIO()
        state = watch(path, follow=False, stream=stream, clock=FakeClock())
        assert state.ended and state.done == 1
        assert state.run_id == "run-w"  # adopted from the header
        assert "stream end" in stream.getvalue()

    def test_rejects_a_non_live_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="not a repro.obs trace"):
            watch(path, follow=False, stream=io.StringIO())

    def test_partial_trailing_line_is_not_parsed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_log(path, end=False)
        with path.open("a") as fh:
            fh.write('{"name": "job:b", "cat"')  # writer mid-append
        state = watch(
            path, follow=False, stream=io.StringIO(), clock=FakeClock()
        )
        assert state.done == 1 and not state.ended

    def test_follow_times_out_on_a_stalled_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_log(path, end=False)
        clock = FakeClock()
        state = watch(
            path, follow=True, stream=io.StringIO(), timeout_s=5.0,
            clock=clock, sleep=lambda s: clock.advance(10.0),
        )
        assert state.done == 1 and not state.ended


# --- chrome routing -----------------------------------------------------------


class TestChromeProfileRouting:
    def test_profile_instants_get_their_own_thread(self):
        events = [
            Event(name="job:a", cat="job", ph="X", ts=0.0, dur=1.0,
                  args={"worker": 111}),
            Event(name="hot:step", cat="profile", ph="i", ts=1.0,
                  args={"cum_s": 0.9}),
        ]
        doc = chrome_trace(events, run_id="r")
        (hot,) = [r for r in doc["traceEvents"]
                  if r.get("cat") == "profile"]
        assert hot["tid"] == 90  # below the worker tid range
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert "profiling" in names

    def test_no_profile_thread_without_profile_events(self):
        doc = chrome_trace(
            [Event(name="x", cat="host", ph="i", ts=0.0)], run_id="r"
        )
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert "profiling" not in names


# --- engine self-profiling and the identity invariant -------------------------


def _tiny_run():
    from repro.config import small_config
    from repro.core.runner import run_combo
    from repro.workloads.table4 import app_by_abbr

    return run_combo(
        small_config(),
        [app_by_abbr("BLK"), app_by_abbr("TRD")],
        (8, 8),
        cycles=4000,
        warmup=400,
        seed=13,
    )


class TestEngineProfiling:
    def test_profiling_counters_reach_the_ambient_registry(
        self, fresh_metrics
    ):
        from repro.sim import set_engine_profiling

        previous = set_engine_profiling(True)
        try:
            _tiny_run()
        finally:
            set_engine_profiling(previous)
        counters = fresh_metrics.counters
        assert counters["engine.events.dispatched"] > 0
        assert any(k.startswith("engine.dispatch.") for k in counters)
        assert fresh_metrics.gauges["engine.wheel.high_water"] > 0
        assert [k for k in fresh_metrics.gauges if k.startswith("engine.")] == [
            "engine.wheel.high_water"
        ]

    def test_profiling_off_leaves_the_registry_silent(self, fresh_metrics):
        _tiny_run()
        assert not any(
            k.startswith("engine.") for k in fresh_metrics.counters
        )

    def test_results_identical_with_profiling_on(self, fresh_metrics):
        from repro.sim import set_engine_profiling

        silent = _tiny_run()
        previous = set_engine_profiling(True)
        try:
            profiled = _tiny_run()
        finally:
            set_engine_profiling(previous)
        assert profiled == silent  # bit-identical SimResult (R003)


class TestTelemetryIdentity:
    def test_published_run_is_identical_to_a_silent_one(
        self, tmp_path, fresh_metrics
    ):
        silent = _tiny_run()
        hub = LiveHub("identity", tmp_path / "trace.jsonl")
        set_publisher(hub.publisher)
        try:
            with tracing(hub.tracer):
                published = _tiny_run()
        finally:
            set_publisher(None)
            hub.close()
        assert published == silent


# --- pool progress throttle ---------------------------------------------------


class TestProgressThrottle:
    def test_drops_within_interval_but_always_delivers_the_final(self):
        from repro.exec import ProgressThrottle

        calls: list[tuple] = []
        clock = FakeClock()
        throttle = ProgressThrottle(
            lambda done, total, spec: calls.append((done, total)),
            min_interval_s=1.0, clock=clock,
        )
        spec = SimpleNamespace(tag=("BLK", "alone", 8))
        throttle(1, 4, spec)       # first call delivers
        throttle(2, 4, spec)       # within interval: dropped
        clock.advance(1.5)
        throttle(3, 4, spec)       # past interval: delivers
        throttle(4, 4, spec)       # final call always delivers
        assert calls == [(1, 4), (3, 4), (4, 4)]
        assert throttle.delivered == 3 and throttle.dropped == 1

    def test_forwards_elapsed_only_to_four_arg_hooks(self):
        from repro.exec import ProgressThrottle

        three: list[tuple] = []
        four: list[tuple] = []
        spec = object()
        ProgressThrottle(lambda d, t, s: three.append((d, t, s)))(
            1, 1, spec, 2.5
        )
        ProgressThrottle(lambda d, t, s, e: four.append((d, t, s, e)))(
            1, 1, spec, 2.5
        )
        assert three == [(1, 1, spec)]
        assert four == [(1, 1, spec, 2.5)]


# --- the CLI gate -------------------------------------------------------------


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the result cache at a temp dir so traced runs simulate."""
    import repro.experiments.common as common

    store_root = tmp_path / "store"
    store_root.mkdir()
    monkeypatch.setattr(
        common.ResultStore, "__init__",
        lambda self, root=store_root: setattr(self, "root", store_root),
    )
    return tmp_path


class TestCLILive:
    def _traced_compare(self, isolated_store, *extra: str):
        from repro.cli import main

        trace_dir = isolated_store / "traces"
        code = main([
            "--config", "small", "--quick", "--jobs", "2",
            "compare", "BLK", "TRD", "--schemes", "besttlp,pbs-ws",
            "--trace", "--trace-dir", str(trace_dir), *extra,
        ])
        assert code == 0
        (run_dir,) = trace_dir.iterdir()
        return run_dir

    def test_profiled_pooled_run_streams_everything(
        self, isolated_store, capsys
    ):
        from repro.cli import main

        run_dir = self._traced_compare(isolated_store, "--profile")
        # one log, its export and the manifest: nothing else
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "trace.chrome.json", "trace.jsonl",
        ]
        header, events = load_trace(run_dir / "trace.jsonl")
        assert header["run_id"] == run_dir.name
        kinds = {(e.cat, e.ph if e.ph != "i" else e.name) for e in events}
        assert {("exec", "batch"), ("job", "job_start"), ("job", "X"),
                ("window", "C"), ("log", "stream_end")} <= kinds
        assert any(e.cat == "pbs" for e in events)
        assert any(e.cat == "profile" for e in events)
        # window samples are the only counters, each one logged once
        counters = [e for e in events if e.ph == "C"]
        assert {e.cat for e in counters} == {"window"}
        assert all(set(e.args) == {"eb", "bw", "cmr", "ipc"} for e in counters)
        keys = [(e.name, e.ts) for e in counters]
        assert len(keys) == len(set(keys))
        end = events[-1]
        assert end.name == "stream_end" and end.args["dropped"] == 0

        # profile frames landed in the Perfetto export on their thread
        chrome = json.loads((run_dir / "trace.chrome.json").read_text())
        hot = [r for r in chrome["traceEvents"]
               if r.get("cat") == "profile"]
        assert hot and all(r["tid"] == 90 for r in hot)

        # engine self-profiling counters reached the run manifest
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["files"] == [
            "trace.chrome.json", "trace.jsonl",
        ]
        counters = manifest["metrics"]["counters"]
        assert counters["engine.events.dispatched"] > 0

        capsys.readouterr()
        # the log is replayable through the watch command
        assert main(["watch", str(run_dir), "--no-follow"]) == 0
        assert "stream end:" in capsys.readouterr().err

        # and summarize reports it, in both text and JSON
        assert main(["trace", "summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "== event log ==" in out and "== engine counters ==" in out
        assert main(["trace", "summarize", str(run_dir), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["run_id"] == run_dir.name
        assert data["log"]["closed"] and data["log"]["dropped"] == 0
        assert data["log"]["counts"]["window"] == len(keys)
        assert data["engine"]["counters"]["engine.events.dispatched"] > 0

    def test_untraced_run_leaves_no_ambient_publisher(self, isolated_store):
        run_dir = self._traced_compare(isolated_store)
        assert isinstance(get_publisher(), NullPublisher)
        _, events = load_trace(run_dir / "trace.jsonl")
        assert not any(e.cat == "profile" for e in events)

    def test_watch_flag_prints_plain_lines_off_tty(
        self, isolated_store, capsys
    ):
        run_dir = self._traced_compare(isolated_store, "--watch")
        err = capsys.readouterr().err
        assert "stream end:" in err and "\x1b[" not in err
        assert (run_dir / "trace.jsonl").is_file()

    def test_watch_missing_run_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", "nope", "--trace-dir", str(tmp_path)]) == 2
        assert "no such trace" in capsys.readouterr().err
