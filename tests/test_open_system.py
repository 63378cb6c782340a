"""End-to-end open-system tests: scenarios under hot-swappable
policies, PBS re-search on roster changes, and tenancy telemetry in the
event log and dashboard."""

from __future__ import annotations

import pytest

from repro.experiments import SCENARIOS, ExperimentContext, ResultStore
from repro.experiments.open_system import assemble_epochs, build_schedule
from repro.core.runner import emit_scheme_events
from repro.obs import Tracer, load_trace, tracing
from repro.obs.dashboard import LiveState, render_lines


@pytest.fixture
def ctx(medium_cfg, quick_lengths, tmp_path) -> ExperimentContext:
    return ExperimentContext(
        config=medium_cfg,
        lengths=quick_lengths,
        seed=1,
        store=ResultStore(root=tmp_path),
        n_jobs=1,
    )


def _run(ctx, scenario_name, policy="pbs-ws", **kwargs):
    from repro.experiments import run_open_scenario

    kwargs.setdefault("cycles", 14000)
    kwargs.setdefault("warmup", 2000)
    kwargs.setdefault("sample_period", 500)
    return run_open_scenario(ctx, SCENARIOS[scenario_name], policy, **kwargs)


class TestTwoPhaseScenario:
    def test_full_lifecycle_is_observed(self, ctx):
        report = _run(ctx, "two-phase")
        assert report.n_arrivals == 1
        assert report.n_departures == 1
        assert [r["event"] for r in report.result.roster] == [
            "attach", "detach",
        ]
        # Three epochs: (BLK,TRD) -> (BLK,TRD,LUD) -> (TRD,LUD).
        assert len(report.epochs) == 3
        assert [len(sds) for _d, sds in report.epochs] == [2, 3, 2]

    def test_metrics_are_finite_and_ordered(self, ctx):
        report = _run(ctx, "two-phase")
        assert report.ws > 0
        assert 0 < report.fi <= 1
        assert 0 < report.hs <= report.ws

    def test_pbs_researches_on_each_roster_change(self, ctx):
        report = _run(ctx, "two-phase")
        researches = [
            d for d in report.decisions
            if d["kind"] == "research" and "reason" in d
        ]
        assert {d["reason"] for d in researches} == {"attach", "detach"}
        # Roster-change research happens at the churn cycle itself.
        churn = {r["cycle"] for r in report.result.roster}
        assert {float(d["cycle"]) for d in researches} <= churn

    def test_policies_are_hot_swappable(self, ctx):
        for policy in ("dyncta", "ccws", "static"):
            report = _run(ctx, "two-phase", policy=policy)
            assert report.scheme == policy
            assert report.n_arrivals == 1
            assert report.n_departures == 1
            assert report.ws > 0


class TestSeededChurnScenario:
    def test_seeded_scenario_churns_and_researches(self, ctx):
        report = _run(ctx, "churn", cycles=20000)
        assert report.n_arrivals >= 1
        assert report.n_departures >= 1
        kinds = {d["kind"] for d in report.decisions}
        assert "research" in kinds
        reasons = {d.get("reason") for d in report.decisions}
        assert reasons & {"attach", "detach"}

    def test_schedule_is_deterministic_per_seed(self, ctx):
        a = build_schedule(
            SCENARIOS["churn"], cycles=20000, warmup=2000, seed=1,
            max_live_cap=ctx.config.n_cores,
        )
        b = build_schedule(
            SCENARIOS["churn"], cycles=20000, warmup=2000, seed=1,
            max_live_cap=ctx.config.n_cores,
        )
        assert a == b


class TestEpochAssembly:
    def test_static_roster_is_one_epoch(self, ctx):
        report = _run(ctx, "two-phase", policy="static")
        result = report.result
        # Re-assemble with the same alone references: the epochs must
        # partition the post-warmup region exactly.
        alone = {0: 1.0, 1: 1.0, 2: 1.0}
        epochs = assemble_epochs(result, 2000.0, alone)
        assert sum(d for d, _ in epochs) == pytest.approx(float(result.cycles))

    def test_apps_without_alone_reference_are_skipped(self, ctx):
        report = _run(ctx, "two-phase", policy="static")
        epochs = assemble_epochs(report.result, 2000.0, {0: 1.0})
        # Only app 0's slowdown survives, and only while app 0 is live.
        assert all(len(sds) == 1 for _d, sds in epochs)
        assert len(epochs) == 2  # app 0 departs in the third epoch


def _events(report) -> list:
    tracer = Tracer("open")
    with tracing(tracer):
        emit_scheme_events(report)
    return tracer.events


class TestTenancyTelemetry:
    def test_traced_run_logs_one_tenancy_instant_per_roster_record(
        self, ctx, tmp_path, monkeypatch, capsys
    ):
        import repro.experiments.common as common
        from repro.cli import main

        # the CLI's store is the test's store, so both runs agree
        monkeypatch.setattr(
            common.ResultStore, "__init__",
            lambda self, root=None: setattr(self, "root", ctx.store.root),
        )
        trace_dir = tmp_path / "traces"
        assert main([
            "--config", "medium", "--quick", "--jobs", "1", "--seed", "1",
            "sim", "open", "--scenario", "two-phase",
            "--trace", "--trace-dir", str(trace_dir),
        ]) == 0
        (run_dir,) = trace_dir.iterdir()
        _, events = load_trace(run_dir / "trace.jsonl")

        from repro.experiments import run_open_scenario

        # the same run, untraced, as the CLI made it
        report = run_open_scenario(ctx, SCENARIOS["two-phase"], "pbs-ws")
        tenancy = [e for e in events if e.cat == "tenancy"]
        assert len(tenancy) == len(report.result.roster) == 2
        for event, rec in zip(tenancy, report.result.roster):
            assert event.name == f"tenancy.{rec['event']}"
            assert event.ts == rec["cycle"]
            assert event.args == {
                "workload": "two-phase", "scheme": "pbs-ws",
                **{k: v for k, v in rec.items() if k != "cycle"},
            }
        # every window sample is one counter, and it carries IPC
        counters = [e for e in events if e.ph == "C"]
        assert counters and {e.cat for e in counters} == {"window"}
        assert all(set(e.args) == {"eb", "bw", "cmr", "ipc"} for e in counters)
        scheme = [e for e in counters if e.name.startswith("two-phase|pbs-ws|")]
        assert len(scheme) == sum(len(s) for _t, s in report.result.windows)

    def test_dashboard_folds_and_renders_tenancy(self, ctx):
        report = _run(ctx, "two-phase")
        state = LiveState()
        for event in _events(report):
            state.apply(event)
        assert state.tenancy_count == 2
        assert state.last_tenancy.args["event"] == "detach"
        lines = render_lines(state)
        assert any("tenancy x2: detach" in line for line in lines)
