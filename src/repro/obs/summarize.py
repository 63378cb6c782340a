"""Offline trace analysis: ``repro trace summarize <run>``.

Reads a run directory (manifest + the JSONL event log) and reconstructs
the run's story: per-phase wall timings, sweep-job cost distribution,
per-application EB/BW/CMR window timelines, the PBS decision log (every
sampled TLP pair with its objective, and the steps it took to
converge), and what the log holds, roster changes included.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.manifest import MANIFEST_FILENAME, validate_manifest
from repro.obs.trace import CLOCK_WALL, Event, load_trace

__all__ = [
    "decision_log",
    "engine_counters",
    "job_stats",
    "log_stats",
    "resolve_trace_path",
    "span_totals",
    "summarize",
    "summary_data",
    "window_timelines",
]

#: Default location of traced runs, relative to the repo root.
TRACES_SUBDIR = Path("results") / "traces"


def resolve_trace_path(target: str | Path, root: Path | None = None) -> Path:
    """Resolve ``target`` to a trace JSONL file.

    Accepts a trace file, a run directory containing ``trace.jsonl``,
    or a bare run id looked up under ``results/traces/``.
    """
    path = Path(target)
    if path.is_file():
        return path
    if path.is_dir():
        candidate = path / "trace.jsonl"
        if candidate.is_file():
            return candidate
        raise FileNotFoundError(f"no trace.jsonl under {path}")
    base = (root or Path.cwd()) / TRACES_SUBDIR / str(target)
    candidate = base / "trace.jsonl"
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"no such trace: {target!r} (tried {path} and {candidate})"
    )


# --- aggregations -------------------------------------------------------


def span_totals(events: list[Event], tid: int | None = 0) -> dict[str, dict]:
    """Wall-span totals by name: ``{name: {count, total_s, max_s}}``.

    ``tid=0`` restricts to top-level phases; ``tid=None`` takes all
    nesting depths.
    """
    totals: dict[str, dict] = {}
    for e in events:
        if e.ph != "X" or e.clock != CLOCK_WALL or e.cat == "job":
            continue
        if tid is not None and e.tid != tid:
            continue
        slot = totals.setdefault(e.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        slot["count"] += 1
        slot["total_s"] += e.dur / 1e6
        slot["max_s"] = max(slot["max_s"], e.dur / 1e6)
    return totals


def job_stats(events: list[Event]) -> dict:
    """Aggregate the ``cat="job"`` spans of the sweep executor."""
    durs: list[float] = []
    queue_wait = 0.0
    workers: set[object] = set()
    for e in events:
        if e.ph != "X" or e.cat != "job":
            continue
        durs.append(e.dur / 1e6)
        queue_wait += float(e.args.get("queue_wait_s", 0.0))
        workers.add(e.args.get("worker", "main"))
    return {
        "count": len(durs),
        "total_s": sum(durs),
        "mean_s": sum(durs) / len(durs) if durs else 0.0,
        "max_s": max(durs, default=0.0),
        "queue_wait_s": queue_wait,
        "workers": len(workers),
    }


def window_timelines(events: list[Event]) -> dict[tuple[str, str, int], list]:
    """Per-(workload, scheme, app) EB/BW/CMR series from counter events.

    Counter names follow ``workload|scheme|appN``; each returned sample
    is ``(cycle, {"eb": ..., "bw": ..., "cmr": ...})``.
    """
    series: dict[tuple[str, str, int], list] = {}
    for e in events:
        if e.ph != "C" or e.cat != "window":
            continue
        parts = e.name.split("|")
        if len(parts) != 3 or not parts[2].startswith("app"):
            continue
        try:
            app = int(parts[2][len("app"):])
        except ValueError:
            continue
        series.setdefault((parts[0], parts[1], app), []).append((e.ts, e.args))
    for samples in series.values():
        samples.sort(key=lambda s: s[0])
    return series


def decision_log(events: list[Event]) -> dict[tuple[str, str], list]:
    """PBS/baseline controller decisions grouped by (workload, scheme).

    Each entry is the instant event's args plus ``kind`` (the event name
    with its ``pbs.``/``ctrl.`` prefix stripped) and ``cycle``.
    """
    log: dict[tuple[str, str], list] = {}
    for e in events:
        if e.ph != "i" or e.cat not in ("pbs", "ctrl"):
            continue
        args = dict(e.args)
        workload = str(args.pop("workload", "?"))
        scheme = str(args.pop("scheme", "?"))
        kind = e.name.split(".", 1)[-1]
        log.setdefault((workload, scheme), []).append(
            {"kind": kind, "cycle": e.ts, **args}
        )
    for entries in log.values():
        entries.sort(key=lambda d: d["cycle"])
    return log


def engine_counters(metrics: dict | None) -> dict:
    """Pull the engine self-profiling aggregates out of a metrics snapshot.

    Returns ``{"counters": {...}, "gauges": {...}}`` restricted to the
    ``engine.`` namespace the simulator publishes under ``--profile``
    (dispatches per stage, wheel/pool high-water marks); both empty when
    the run was not profiled.
    """
    out: dict = {"counters": {}, "gauges": {}}
    if not isinstance(metrics, dict):
        return out
    for kind in ("counters", "gauges"):
        values = metrics.get(kind)
        if isinstance(values, dict):
            out[kind] = {
                name: value
                for name, value in sorted(values.items())
                if str(name).startswith("engine.")
            }
    return out


def log_stats(events: list[Event]) -> dict:
    """What the event log holds: ``{"counts": {cat: n}, "closed", "dropped"}``.

    ``closed`` says whether the log ends with the hub's ``stream_end``
    instant, whose ``dropped`` count it reports (0 when still open).
    """
    counts: dict[str, int] = {}
    end: Event | None = None
    for e in events:
        counts[e.cat] = counts.get(e.cat, 0) + 1
        if e.name == "stream_end":
            end = e
    return {
        "counts": dict(sorted(counts.items())),
        "closed": end is not None,
        "dropped": int(end.args.get("dropped", 0)) if end is not None else 0,
    }


def summary_data(target: str | Path, root: Path | None = None) -> dict:
    """The full summary as one JSON-serializable dict (``--json``).

    Mirrors every section of the text renderer — manifest (plus its
    validation problems), phase totals, sweep-job stats, window-timeline
    aggregates, decision counts, engine self-profiling counters, and
    per-category event counts — keyed stably so CI can assert on it
    instead of scraping the human output.
    """
    trace_path = resolve_trace_path(target, root=root)
    header, events = load_trace(trace_path)
    run_dir = trace_path.parent

    manifest: dict | None = None
    manifest_problems: list[str] = []
    manifest_path = run_dir / MANIFEST_FILENAME
    if manifest_path.is_file():
        try:
            loaded = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            manifest_problems = [f"unreadable manifest: {exc}"]
        else:
            if isinstance(loaded, dict):
                manifest = loaded
                manifest_problems = validate_manifest(loaded)
            else:
                manifest_problems = ["manifest is not a JSON object"]

    timelines = {
        f"{workload}|{scheme}|app{app}": {
            "windows": len(samples),
            "first_cycle": samples[0][0],
            "last_cycle": samples[-1][0],
            "mean": {
                key: sum(s[1].get(key, 0.0) for s in samples) / len(samples)
                for key in ("eb", "bw", "cmr")
            },
        }
        for (workload, scheme, app), samples in sorted(
            window_timelines(events).items()
        )
    }
    decisions = {
        f"{workload}|{scheme}": {
            "count": len(entries),
            "kinds": _kind_counts(entries),
        }
        for (workload, scheme), entries in sorted(decision_log(events).items())
    }
    return {
        "trace": str(trace_path),
        "run_id": header.get("run_id"),
        "n_events": len(events),
        "manifest": manifest,
        "manifest_problems": manifest_problems,
        "phases": span_totals(events, tid=0),
        "jobs": job_stats(events),
        "window_timelines": timelines,
        "decisions": decisions,
        "engine": engine_counters((manifest or {}).get("metrics")),
        "log": log_stats(events),
    }


def _kind_counts(entries: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for d in entries:
        kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
    return dict(sorted(kinds.items()))


# --- rendering ----------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    return f"{seconds:8.3f}s"


def _manifest_section(manifest_path: Path) -> list[str]:
    """Render the manifest block, degrading gracefully on failure-path
    manifests (null fields, missing per-phase timings, absent exports)
    instead of raising out of the whole summary."""
    lines = ["", "== manifest =="]
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        lines.append(
            f"  WARNING: unreadable manifest ({exc}) — partial summary"
        )
        return lines
    if not isinstance(manifest, dict):
        lines.append(
            "  WARNING: malformed manifest (not a JSON object) — "
            "partial summary"
        )
        return lines
    problems = validate_manifest(manifest)
    argv = manifest.get("argv") or []
    if not isinstance(argv, list):
        argv = [argv]
    lines.append(
        f"  command: {manifest.get('command')}  "
        f"argv: {' '.join(str(a) for a in argv)}"
    )
    lines.append(
        f"  config: {manifest.get('config')} "
        f"[{manifest.get('config_fingerprint')}]  "
        f"seed: {manifest.get('seed')}  quick: {manifest.get('quick')}  "
        f"jobs: {manifest.get('n_jobs')}"
    )
    lines.append(
        f"  cache_format: {manifest.get('cache_format')}  "
        f"git: {manifest.get('git_rev') or 'n/a'}  "
        f"python: {manifest.get('python')}"
    )
    try:
        duration = float(manifest.get("duration_s") or 0.0)
    except (TypeError, ValueError):
        duration = 0.0
    lines.append(
        f"  started: {manifest.get('started_at')}  "
        f"duration: {duration:.3f}s"
    )
    if not manifest.get("finished_at"):
        lines.append(
            "  WARNING: run did not finish cleanly (no finished_at); "
            "per-phase timings may be missing — partial summary"
        )
    listed = manifest.get("files") or []
    if isinstance(listed, list):
        absent = [
            str(name) for name in listed
            if not (manifest_path.parent / str(name)).is_file()
        ]
        if absent:
            lines.append(
                f"  WARNING: listed file(s) absent: {', '.join(absent)} "
                "— partial summary"
            )
        if "trace.chrome.json" not in listed:
            lines.append(
                "  WARNING: no Chrome/Perfetto export recorded "
                "(failure-path run?)"
            )
    if problems:
        lines.append(f"  INCOMPLETE: missing/invalid fields {problems}")
    return lines


def summarize(target: str | Path, root: Path | None = None) -> str:
    """Render the human summary of one traced run."""
    trace_path = resolve_trace_path(target, root=root)
    header, events = load_trace(trace_path)
    lines = [f"trace: {trace_path}  (run {header.get('run_id', '?')}, "
             f"{len(events)} events)"]

    manifest_path = trace_path.parent / MANIFEST_FILENAME
    if manifest_path.is_file():
        lines.extend(_manifest_section(manifest_path))
    else:
        lines.append(f"  (no {MANIFEST_FILENAME} next to the trace)")

    phases = span_totals(events, tid=0)
    lines.append("")
    lines.append("== phases (wall) ==")
    if phases:
        for name, slot in sorted(
            phases.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            lines.append(
                f"  {_fmt_s(slot['total_s'])}  x{slot['count']:<4d} {name}"
            )
    else:
        lines.append("  (no host spans recorded)")

    jobs = job_stats(events)
    if jobs["count"]:
        lines.append("")
        lines.append("== sweep jobs ==")
        lines.append(
            f"  {jobs['count']} jobs on {jobs['workers']} worker(s): "
            f"total {jobs['total_s']:.3f}s, mean {jobs['mean_s']:.3f}s, "
            f"max {jobs['max_s']:.3f}s, queue wait {jobs['queue_wait_s']:.3f}s"
        )

    timelines = window_timelines(events)
    if timelines:
        lines.append("")
        lines.append("== per-app window timelines (cycles) ==")
        for (workload, scheme, app), samples in sorted(timelines.items()):
            n = len(samples)
            means = {
                key: sum(s[1].get(key, 0.0) for s in samples) / n
                for key in ("eb", "bw", "cmr")
            }
            first_eb = samples[0][1].get("eb", 0.0)
            last_eb = samples[-1][1].get("eb", 0.0)
            lines.append(
                f"  {workload} {scheme} app{app}: {n} windows "
                f"[{samples[0][0]:.0f}..{samples[-1][0]:.0f}]  "
                f"EB {first_eb:.3f}->{last_eb:.3f} (mean {means['eb']:.3f})  "
                f"BW mean {means['bw']:.3f}  CMR mean {means['cmr']:.3f}"
            )

    decisions = decision_log(events)
    if decisions:
        lines.append("")
        lines.append("== controller decision log ==")
        for (workload, scheme), entries in sorted(decisions.items()):
            samples = [d for d in entries if d["kind"] == "sample"]
            settled = [d for d in entries if d["kind"] == "settled"]
            kinds: dict[str, int] = {}
            for d in entries:
                kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
            kind_s = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
            lines.append(
                f"  {workload} {scheme}: {len(entries)} decisions "
                f"({kind_s})"
            )
            for d in samples:
                combo = tuple(d.get("combo", ()))
                obj = d.get("objective")
                obj_s = f"{obj:.4f}" if isinstance(obj, (int, float)) else "?"
                lines.append(
                    f"    @{d['cycle']:>10.0f}  sample {combo}  obj={obj_s}"
                )
            for d in entries:
                if d["kind"] in ("criticality", "final"):
                    detail = {
                        k: v for k, v in d.items() if k not in ("kind", "cycle")
                    }
                    lines.append(
                        f"    @{d['cycle']:>10.0f}  {d['kind']}: {detail}"
                    )
            for d in settled:
                lines.append(
                    f"    @{d['cycle']:>10.0f}  settled on "
                    f"{tuple(d.get('combo', ()))} after "
                    f"{d.get('n_samples', '?')} samples"
                )

    metrics = None
    if manifest_path.is_file():
        try:
            loaded = json.loads(manifest_path.read_text())
            if isinstance(loaded, dict):
                metrics = loaded.get("metrics")
        except (OSError, json.JSONDecodeError):
            metrics = None
    engine = engine_counters(metrics)
    if engine["counters"] or engine["gauges"]:
        lines.append("")
        lines.append("== engine counters ==")
        for name, value in engine["counters"].items():
            lines.append(f"  {name:<36} {value:>14,.0f}")
        for name, value in engine["gauges"].items():
            lines.append(f"  {name:<36} {value:>14,.0f}  (high water)")

    log = log_stats(events)
    lines.append("")
    lines.append("== event log ==")
    count_s = ", ".join(f"{k}={n}" for k, n in log["counts"].items())
    state = f"closed, dropped={log['dropped']}" if log["closed"] else "open"
    lines.append(f"  {len(events)} events ({count_s or 'none'})  {state}")

    return "\n".join(lines)
