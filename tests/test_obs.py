"""Tests for repro.obs: tracing, metrics, manifests, exports, summaries.

Unit coverage for each obs module plus the end-to-end gate: a traced
quick ``compare`` run must produce a parseable JSONL event log, a
loadable Chrome export, and a complete manifest, and ``repro trace
summarize`` must reconstruct phases, window timelines, and the PBS
decision log from them.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import (
    CLOCK_CYCLES,
    CLOCK_WALL,
    MANIFEST_FILENAME,
    REQUIRED_FIELDS,
    Event,
    MetricsRegistry,
    NullTracer,
    RunManifest,
    Tracer,
    atomic_write_text,
    chrome_trace,
    config_fingerprint,
    decision_log,
    get_metrics,
    get_tracer,
    job_stats,
    load_trace,
    log_stats,
    parse_events,
    read_jsonl,
    resolve_trace_path,
    set_metrics,
    set_tracer,
    span_totals,
    summarize,
    tracing,
    validate_manifest,
    window_timelines,
    write_chrome_trace,
)
from repro.obs.io import JsonlAppender


def _write_log(path: Path, run_id: str, events: list[Event]) -> None:
    """Write ``events`` as a run's event log at ``path``."""
    with JsonlAppender(path, mode="w") as sink:
        sink.append(Tracer(run_id).header())
        for e in events:
            sink.append(e.to_dict())


# --- events and tracer --------------------------------------------------------


class TestEvent:
    def test_round_trip(self):
        e = Event(name="n", cat="c", ph="X", ts=1.5, clock=CLOCK_WALL,
                  dur=2.5, tid=3, args={"k": 1})
        assert Event.from_dict(e.to_dict()) == e

    def test_dur_only_serialized_for_spans(self):
        instant = Event(name="n", cat="c", ph="i", ts=0.0)
        assert "dur" not in instant.to_dict()
        assert "args" not in instant.to_dict()  # empty args omitted
        span = Event(name="n", cat="c", ph="X", ts=0.0, dur=7.0)
        assert span.to_dict()["dur"] == 7.0


class TestTracer:
    def test_span_records_nesting_depth(self):
        tracer = Tracer("t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {e.name: e for e in tracer.events}
        assert by_name["outer"].tid == 0
        assert by_name["inner"].tid == 1
        assert by_name["outer"].dur >= by_name["inner"].dur >= 0.0
        assert all(e.clock == CLOCK_WALL for e in tracer.events)

    def test_counter_and_instant_clocks(self):
        tracer = Tracer("t")
        tracer.counter("w|s|app0", {"eb": 0.5}, ts=1000.0, cat="window")
        tracer.instant("pbs.sample", cat="pbs", clock=CLOCK_CYCLES, ts=2000.0)
        tracer.instant("note")  # wall-stamped by default
        counter, cycle_i, wall_i = tracer.events
        assert (counter.ph, counter.clock, counter.ts) == ("C", CLOCK_CYCLES, 1000.0)
        assert (cycle_i.ph, cycle_i.clock, cycle_i.ts) == ("i", CLOCK_CYCLES, 2000.0)
        assert wall_i.clock == CLOCK_WALL and wall_i.ts >= 0.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer("roundtrip", path)
        with tracer.span("phase", cat="host", detail="x"):
            tracer.counter("w|s|app0", {"eb": 1.0}, ts=5.0)
        tracer.instant("pbs.final", cat="pbs", clock=CLOCK_CYCLES, ts=9.0,
                       combo=[24, 4])
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(tracer.events)  # header + one per event
        header, events = parse_events([json.loads(line) for line in lines])
        assert header["run_id"] == "roundtrip"
        assert events == tracer.events
        assert load_trace(path) == (header, events)

    def test_phase_totals_top_level_only(self):
        tracer = Tracer("t")
        with tracer.span("phase"):
            with tracer.span("sub"):
                pass
        tracer.complete("job:x", ts=0.0, dur=1e6, cat="job", worker="main")
        totals = tracer.phase_totals()
        assert set(totals) == {"phase"}  # no sub-span, no job span
        assert totals["phase"]["count"] == 1


class TestAmbientTracer:
    def test_default_is_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer) and not tracer.enabled
        with tracer.span("anything"):  # usable as a no-op
            pass
        tracer.instant("x")
        assert tracer.phase_totals() == {}

    def test_tracing_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with tracing(Tracer("t")) as active:
                assert get_tracer() is active
                raise RuntimeError("boom")
        assert get_tracer() is before

    def test_set_tracer_none_disables(self):
        set_tracer(Tracer("t"))
        set_tracer(None)
        assert not get_tracer().enabled


class TestParseErrors:
    HEADER = {"schema": "repro.obs.trace", "version": 2, "run_id": "r"}

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="missing schema header"):
            parse_events([])

    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="not a repro.obs trace"):
            parse_events([{"schema": "something.else"}])

    def test_wrong_version(self):
        with pytest.raises(ValueError, match="unsupported trace version"):
            parse_events([{**self.HEADER, "version": 99}])

    def test_missing_field_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_events([self.HEADER, {"name": "x"}])

    def test_unknown_phase_and_clock(self):
        base = {"name": "n", "cat": "c", "ts": 0.0}
        with pytest.raises(ValueError, match="unknown phase"):
            parse_events([self.HEADER, {**base, "ph": "Z"}])
        with pytest.raises(ValueError, match="unknown clock"):
            parse_events([self.HEADER, {**base, "ph": "i", "clock": "tai"}])


# --- io -----------------------------------------------------------------------


class TestAtomicIO:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_read_jsonl_skips_blanks_and_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"data\.jsonl:2"):
            read_jsonl(path)


# --- metrics ------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        reg = MetricsRegistry()
        reg.inc("cache.scheme.hit")
        reg.inc("cache.scheme.hit", 2)
        reg.set_gauge("jobs", 4)
        reg.observe("sweep", 1.0)
        reg.observe("sweep", 3.0)
        assert reg.counters["cache.scheme.hit"] == 3
        assert reg.gauges["jobs"] == 4
        timer = reg.timer("sweep")
        assert timer == {"count": 2, "total_s": 4.0, "max_s": 3.0}
        assert reg.timer("unknown")["count"] == 0

    def test_timelines(self):
        reg = MetricsRegistry()
        reg.record_point("eb", 1, t=2000.0, value=0.4)
        reg.record_point("eb", 0, t=1000.0, value=0.7)
        assert reg.timeline_series() == [("eb", 0), ("eb", 1)]
        (point,) = reg.timeline("eb", 0)
        assert (point.t, point.value) == (1000.0, 0.7)
        assert reg.timeline("eb", 9) == []

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.record_point("eb", 0, t=1.0, value=2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["timelines"] == {"eb/app0": 1}
        json.dumps(snap)  # must be JSON-serializable
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "timers": {}, "timelines": {},
        }

    def test_ambient_swap_returns_previous(self):
        original = get_metrics()
        fresh = MetricsRegistry()
        assert set_metrics(fresh) is original
        try:
            assert get_metrics() is fresh
        finally:
            assert set_metrics(original) is fresh


class TestMetricsMerge:
    """Cross-process folding semantics (the live-collector contract)."""

    def _worker(self, n: float) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("jobs", n)
        reg.observe("sweep", n)
        reg.set_gauge("high_water", n)
        reg.record_point("eb", 0, t=100.0 * n, value=n)
        return reg

    def test_counter_and_timer_merge_is_associative(self):
        snaps = [
            self._worker(n).snapshot(timelines=True) for n in (1, 2, 3)
        ]
        left = MetricsRegistry()        # (a + b) + c
        left.merge(snaps[0])
        left.merge(snaps[1])
        left.merge(snaps[2])
        ab = MetricsRegistry()          # a + (b + c) via an intermediate
        ab.merge(snaps[1])
        ab.merge(snaps[2])
        right = MetricsRegistry()
        right.merge(snaps[0])
        right.merge(ab.snapshot(timelines=True))
        assert left.counters == right.counters == {"jobs": 6}
        assert left.timer("sweep") == right.timer("sweep")
        assert left.timer("sweep") == {
            "count": 3, "total_s": 6.0, "max_s": 3.0,
        }

    def test_gauge_labels_keep_workers_apart(self):
        parent = MetricsRegistry()
        parent.merge(self._worker(1).snapshot(), label="pid1")
        parent.merge(self._worker(2).snapshot(), label="pid2")
        assert parent.gauges == {
            "high_water@pid1": 1.0, "high_water@pid2": 2.0,
        }
        # same label twice: one worker, one slot — last write wins
        parent.merge(self._worker(5).snapshot(), label="pid1")
        assert parent.gauges["high_water@pid1"] == 5.0
        # unlabelled merges collide by design
        bare = MetricsRegistry()
        bare.merge(self._worker(1).snapshot())
        bare.merge(self._worker(2).snapshot())
        assert bare.gauges == {"high_water": 2.0}

    def test_full_snapshot_round_trips(self):
        reg = self._worker(4)
        clone = MetricsRegistry.from_snapshot(reg.snapshot(timelines=True))
        assert clone.snapshot(timelines=True) == reg.snapshot(timelines=True)
        assert clone.timeline("eb", 0) == reg.timeline("eb", 0)

    def test_condensed_snapshot_drops_timeline_points(self):
        reg = self._worker(4)
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.timeline("eb", 0) == []
        assert clone.counters == reg.counters

    def test_out_of_order_points_read_back_sorted_stably(self):
        reg = MetricsRegistry()
        reg.record_point("eb", 0, t=300.0, value=3.0)
        reg.record_point("eb", 0, t=100.0, value=1.0)
        reg.record_point("eb", 0, t=100.0, value=1.5)  # equal-time: keeps order
        reg.record_point("eb", 0, t=200.0, value=2.0)
        values = [p.value for p in reg.timeline("eb", 0)]
        assert values == [1.0, 1.5, 2.0, 3.0]

    def test_reset_isolates_subsequent_merges(self):
        reg = self._worker(1)
        reg.reset()
        assert reg.snapshot(timelines=True) == {
            "counters": {}, "gauges": {}, "timers": {}, "timelines": {},
            "timeline_points": {},
        }
        reg.merge(self._worker(2).snapshot(timelines=True))
        assert reg.counters == {"jobs": 2}  # no residue from before reset
        assert [p.value for p in reg.timeline("eb", 0)] == [2.0]


# --- chrome export ------------------------------------------------------------


class TestChromeExport:
    def test_clock_domains_map_to_processes(self):
        events = [
            Event(name="host", cat="host", ph="X", ts=0.0, dur=1.0),
            Event(name="w|s|app0", cat="window", ph="C", ts=5.0,
                  clock=CLOCK_CYCLES, args={"eb": 0.5, "label": "drop-me"}),
            Event(name="pbs.sample", cat="pbs", ph="i", ts=7.0,
                  clock=CLOCK_CYCLES),
        ]
        doc = chrome_trace(events, run_id="r")
        assert doc["displayTimeUnit"] == "ms"
        records = {r["name"]: r for r in doc["traceEvents"] if r["ph"] != "M"}
        assert records["host"]["pid"] == 1
        assert records["w|s|app0"]["pid"] == 2
        # counter args keep only numeric series
        assert records["w|s|app0"]["args"] == {"eb": 0.5}
        assert records["pbs.sample"]["s"] == "t"
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        names = {r["args"]["name"] for r in meta}
        assert any("host" in n for n in names)
        assert any("cycle" in n for n in names)

    def test_workers_get_their_own_threads(self):
        events = [
            Event(name="job:a", cat="job", ph="X", ts=0.0, dur=1.0,
                  args={"worker": 111}),
            Event(name="job:b", cat="job", ph="X", ts=1.0, dur=1.0,
                  args={"worker": 222}),
            Event(name="job:c", cat="job", ph="X", ts=2.0, dur=1.0,
                  args={"worker": 111}),
        ]
        doc = chrome_trace(events)
        tids = [r["tid"] for r in doc["traceEvents"]
                if r.get("cat") == "job"]
        assert tids[0] == tids[2] != tids[1]
        assert all(t >= 100 for t in tids)
        thread_names = [r for r in doc["traceEvents"]
                        if r["ph"] == "M" and r["name"] == "thread_name"]
        assert len(thread_names) == 2

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(path, [Event(name="x", cat="c", ph="i", ts=0.0)])
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


# --- manifest -----------------------------------------------------------------


class TestManifest:
    def _started(self):
        return RunManifest.start(
            run_id="r", command="compare", argv=["compare", "BLK", "TRD"],
            config_name="small", config_dict={"n_sm": 4}, seed=1,
            quick=True, n_jobs=2, cache_format=3,
        )

    def test_complete_manifest_validates(self, tmp_path):
        manifest = self._started()
        manifest.finish(phases={"evaluate_schemes": {"count": 1}},
                        metrics={}, files=["trace.jsonl"])
        path = manifest.write(tmp_path)
        assert path.name == MANIFEST_FILENAME
        data = json.loads(path.read_text())
        assert validate_manifest(data) == []
        assert set(REQUIRED_FIELDS) <= set(data)
        assert data["duration_s"] >= 0.0

    def test_missing_field_and_bad_timestamp_flagged(self):
        manifest = self._started()
        manifest.finish(phases={}, metrics={}, files=[])
        data = manifest.to_dict()
        del data["seed"]
        data["started_at"] = "yesterday-ish"
        problems = validate_manifest(data)
        assert "seed" in problems and "started_at" in problems

    def test_config_fingerprint_stable_and_sensitive(self):
        a = config_fingerprint({"x": 1, "y": 2})
        assert a == config_fingerprint({"y": 2, "x": 1})  # order-insensitive
        assert a != config_fingerprint({"x": 1, "y": 3})
        assert len(a) == 16


# --- summarize aggregations ---------------------------------------------------


def _synthetic_events():
    return [
        Event(name="evaluate_schemes", cat="host", ph="X", ts=0.0, dur=2e6),
        Event(name="sub", cat="host", ph="X", ts=0.0, dur=1e6, tid=1),
        Event(name="job:BLK/1", cat="job", ph="X", ts=0.0, dur=5e5,
              args={"worker": 10, "queue_wait_s": 0.25}),
        Event(name="job:BLK/2", cat="job", ph="X", ts=1.0, dur=3e5,
              args={"worker": 11, "queue_wait_s": 0.0}),
        Event(name="BLK_TRD|pbs-ws|app0", cat="window", ph="C", ts=2000.0,
              clock=CLOCK_CYCLES, args={"eb": 0.5, "bw": 0.4, "cmr": 0.1}),
        Event(name="BLK_TRD|pbs-ws|app0", cat="window", ph="C", ts=1000.0,
              clock=CLOCK_CYCLES, args={"eb": 0.3, "bw": 0.2, "cmr": 0.2}),
        Event(name="pbs.sample", cat="pbs", ph="i", ts=1500.0,
              clock=CLOCK_CYCLES,
              args={"workload": "BLK_TRD", "scheme": "pbs-ws",
                    "combo": [24, 4], "objective": 1.25}),
        Event(name="pbs.settled", cat="pbs", ph="i", ts=1800.0,
              clock=CLOCK_CYCLES,
              args={"workload": "BLK_TRD", "scheme": "pbs-ws",
                    "combo": [24, 4], "n_samples": 9}),
        Event(name="tenancy.attach", cat="tenancy", ph="i", ts=1900.0,
              clock=CLOCK_CYCLES,
              args={"workload": "BLK_TRD", "scheme": "pbs-ws",
                    "event": "attach", "app": 2, "roster": [0, 1, 2]}),
    ]


class TestSummarizeAggregations:
    def test_span_totals_scopes_by_tid(self):
        events = _synthetic_events()
        top = span_totals(events, tid=0)
        assert set(top) == {"evaluate_schemes"}  # no sub-spans, no jobs
        assert top["evaluate_schemes"]["total_s"] == pytest.approx(2.0)
        assert set(span_totals(events, tid=None)) == {"evaluate_schemes", "sub"}

    def test_job_stats(self):
        stats = job_stats(_synthetic_events())
        assert stats["count"] == 2 and stats["workers"] == 2
        assert stats["total_s"] == pytest.approx(0.8)
        assert stats["queue_wait_s"] == pytest.approx(0.25)

    def test_window_timelines_sorted_by_cycle(self):
        series = window_timelines(_synthetic_events())
        samples = series[("BLK_TRD", "pbs-ws", 0)]
        assert [t for t, _ in samples] == [1000.0, 2000.0]
        assert samples[0][1]["eb"] == 0.3

    def test_decision_log_grouped_and_stripped(self):
        log = decision_log(_synthetic_events())
        entries = log[("BLK_TRD", "pbs-ws")]
        assert [d["kind"] for d in entries] == ["sample", "settled"]
        assert entries[0]["combo"] == [24, 4]
        assert "workload" not in entries[0]

    def test_log_stats_counts_every_category(self):
        stats = log_stats(_synthetic_events())
        assert stats["counts"] == {
            "host": 2, "job": 2, "pbs": 2, "tenancy": 1, "window": 2,
        }
        assert not stats["closed"] and stats["dropped"] == 0
        end = Event(name="stream_end", cat="log", ph="i", ts=9.0,
                    args={"records": 4, "dropped": 3})
        closed = log_stats(_synthetic_events() + [end])
        assert closed["closed"] and closed["dropped"] == 3

    def test_summarize_renders_everything(self, tmp_path):
        run_dir = tmp_path / "results" / "traces" / "synthetic"
        run_dir.mkdir(parents=True)
        _write_log(run_dir / "trace.jsonl", "synthetic", _synthetic_events())
        text = summarize("synthetic", root=tmp_path)
        assert "evaluate_schemes" in text
        assert "2 jobs on 2 worker(s)" in text
        assert "BLK_TRD pbs-ws app0: 2 windows" in text
        assert "sample (24, 4)  obj=1.2500" in text
        assert "settled on (24, 4) after 9 samples" in text
        assert "tenancy=1" in text and "open" in text
        assert f"no {MANIFEST_FILENAME}" in text

    def _run_dir_with_trace(self, tmp_path):
        run_dir = tmp_path / "results" / "traces" / "failed-run"
        run_dir.mkdir(parents=True)
        _write_log(run_dir / "trace.jsonl", "failed-run", _synthetic_events())
        return run_dir

    def test_summarize_tolerates_failure_path_manifest(self, tmp_path):
        # A manifest from a crashed run: null argv/duration, no
        # finished_at, no per-phase timings, and the listed Chrome
        # export never landed on disk.  Summarize must degrade to a
        # partial summary with warnings, not a traceback.
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text(json.dumps({
            "schema": "repro.obs.manifest",
            "run_id": "failed-run",
            "command": "compare",
            "argv": None,
            "duration_s": None,
            "finished_at": "",
            "phases": None,
            "files": ["trace.jsonl", "trace.chrome.json"],
        }))
        text = summarize("failed-run", root=tmp_path)
        assert "did not finish cleanly" in text
        assert "trace.chrome.json" in text and "absent" in text
        assert "partial summary" in text
        assert "INCOMPLETE" in text  # required fields still reported
        assert "evaluate_schemes" in text  # trace sections still render

    def test_summarize_tolerates_corrupt_manifest(self, tmp_path):
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text("{ truncated")
        text = summarize("failed-run", root=tmp_path)
        assert "unreadable manifest" in text
        assert "partial summary" in text
        assert "2 jobs on 2 worker(s)" in text

    def test_summarize_flags_missing_chrome_export(self, tmp_path):
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text(json.dumps({
            "schema": "repro.obs.manifest",
            "run_id": "failed-run",
            "files": ["trace.jsonl"],
        }))
        text = summarize("failed-run", root=tmp_path)
        assert "no Chrome/Perfetto export" in text

    def test_resolve_trace_path_variants(self, tmp_path):
        run_dir = tmp_path / "results" / "traces" / "runx"
        run_dir.mkdir(parents=True)
        trace = run_dir / "trace.jsonl"
        trace.write_text("{}\n")
        assert resolve_trace_path(trace) == trace
        assert resolve_trace_path(run_dir) == trace
        assert resolve_trace_path("runx", root=tmp_path) == trace
        with pytest.raises(FileNotFoundError):
            resolve_trace_path("nope", root=tmp_path)


# --- scheme replay ------------------------------------------------------------


class TestEmitSchemeEvents:
    def _result(self):
        sample = SimpleNamespace(eb=0.5, bw=0.4, cmr=0.1, ipc=0.9)
        roster = [{"cycle": 950.0, "event": "attach", "app": 2, "abbr": "LUD",
                   "roster": [0, 1, 2], "cores": [3, 3, 2]}]
        return SimpleNamespace(
            workload="BLK_TRD",
            scheme="pbs-ws",
            result=SimpleNamespace(windows=[(1000.0, {0: sample})],
                                   roster=roster),
            decisions=[{"kind": "sample", "cycle": 900.0,
                        "combo": [24, 4], "objective": 1.5}],
        )

    def test_emits_counters_and_instants(self):
        from repro.core.runner import emit_scheme_events

        tracer = Tracer("t")
        emit_scheme_events(self._result(), tracer=tracer)
        counter, instant, tenancy = tracer.events
        assert counter.name == "BLK_TRD|pbs-ws|app0"
        assert counter.args == {"eb": 0.5, "bw": 0.4, "cmr": 0.1, "ipc": 0.9}
        assert instant.name == "pbs.sample"
        assert instant.args["workload"] == "BLK_TRD"
        assert instant.ts == 900.0 and instant.clock == CLOCK_CYCLES
        assert tenancy.name == "tenancy.attach" and tenancy.cat == "tenancy"
        assert tenancy.ts == 950.0 and tenancy.clock == CLOCK_CYCLES
        assert tenancy.args["roster"] == [0, 1, 2]

    def test_disabled_tracer_emits_nothing(self):
        from repro.core.runner import emit_scheme_events

        emit_scheme_events(self._result(), tracer=NullTracer())  # no raise


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


class TestCLITrace:
    def test_traced_compare_end_to_end(self, isolated_store, capsys):
        from repro.cli import main

        trace_dir = isolated_store / "traces"
        code = main([
            "--config", "small", "--quick", "--jobs", "1",
            "compare", "BLK", "TRD", "--schemes", "besttlp,pbs-ws",
            "--trace", "--trace-dir", str(trace_dir),
        ])
        assert code == 0
        (run_dir,) = trace_dir.iterdir()
        assert run_dir.name.startswith("compare-")

        header, events = load_trace(run_dir / "trace.jsonl")
        assert header["run_id"] == run_dir.name
        assert window_timelines(events)  # per-app EB/BW/CMR present
        log = decision_log(events)
        pbs_entries = log[("BLK_TRD", "pbs-ws")]
        assert any(d["kind"] == "sample" for d in pbs_entries)
        assert any(d["kind"] in ("final", "settled") for d in pbs_entries)

        chrome = json.loads((run_dir / "trace.chrome.json").read_text())
        assert chrome["traceEvents"]

        manifest = json.loads((run_dir / MANIFEST_FILENAME).read_text())
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "compare"
        assert manifest["cache_format"] >= 3
        assert manifest["phases"]  # per-phase wall timings recorded
        capsys.readouterr()

        # the summarize subcommand reconstructs the run's story
        assert main(["trace", "summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "== phases (wall) ==" in out
        assert "BLK_TRD pbs-ws app0" in out
        assert "sample" in out

    def test_tracer_uninstalled_after_run(self, isolated_store):
        from repro.cli import main

        main(["--config", "small", "--quick", "--jobs", "1",
              "run", "BLK", "TRD", "--scheme", "besttlp",
              "--trace", "--trace-dir", str(isolated_store / "t")])
        assert not get_tracer().enabled

    def test_summarize_missing_run_exits_2(self, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", "no-such-run"]) == 2
        assert "error" in capsys.readouterr().err


class TestProgressLine:
    def _spec(self):
        return SimpleNamespace(tag=("BLK", "alone", 8))

    def test_silent_when_stderr_not_a_tty(self, monkeypatch):
        from repro import cli

        fake = io.StringIO()  # StringIO.isatty() is False
        monkeypatch.setattr(sys, "stderr", fake)
        cli._print_progress(1, 5, self._spec())
        assert fake.getvalue() == ""

    def test_tty_gets_carriage_return_frames(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        cli._print_progress(1, 5, self._spec(), 2.0)
        cli._print_progress(5, 5, self._spec())
        out = fake.getvalue()
        assert out.startswith("\r")
        assert "[1/5]" in out and "BLK alone 8" in out
        assert "2.0s" in out  # per-job elapsed rendered
        assert out.endswith("\n")  # final frame closes the line

    def test_rate_and_eta_rendered_mid_sweep(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        clock = iter([10.0, 12.0, 14.0]).__next__
        printer = cli._ProgressPrinter(clock=clock)
        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        printer(1, 5, self._spec(), 2.0)  # anchor backdated to t=8
        printer(2, 5, self._spec(), 2.0)
        out = fake.getvalue()
        assert "0.5/s" in out  # 2 done over the 4s since the anchor
        assert "ETA    6s" in out  # 3 remaining at 0.5/s

    def test_new_batch_reanchors_the_rate_clock(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        clock = iter([0.0, 100.0, 102.0]).__next__
        printer = cli._ProgressPrinter(clock=clock)
        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        printer(2, 2, self._spec(), 1.0)  # first batch finishes
        printer(1, 2, self._spec(), 1.0)  # done fell: new batch, new anchor
        printer(2, 2, self._spec(), 1.0)
        frames = fake.getvalue().split("\r")
        # the second batch's rate reflects its own 3s span, not the gap
        assert "  1.0/s" in frames[2]
        assert "0.7/s" in frames[3]
