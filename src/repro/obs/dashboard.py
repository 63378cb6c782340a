"""The live TTY dashboard over a run's event log.

:class:`LiveState` folds :class:`~repro.obs.trace.Event` records into
the current picture of a sweep — jobs done/failed/active, per-(workload,
scheme, app) window signals, worker liveness, decision and roster-change
counts.  :class:`Dashboard` renders that state: on a terminal as a
multi-line panel redrawn in place (ANSI cursor-up + erase), elsewhere as
plain append-only log lines so piped output stays readable.
:func:`watch` tails a ``trace.jsonl`` event log into a dashboard — the
implementation of both ``--watch`` and ``repro watch RUN`` — following
the file until its closing ``stream_end`` instant (the log is still
being written by a running sweep) or just replaying it when
``follow=False``.

Everything takes injectable clocks/streams so tests can drive a fake
TTY deterministically.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, TextIO

from repro.obs.trace import Event, parse_events

__all__ = ["Dashboard", "LiveState", "render_lines", "watch"]

#: How many per-app window series the panel shows before eliding.
_MAX_SERIES_ROWS = 8
#: How many in-flight jobs the panel lists.
_MAX_ACTIVE_ROWS = 4


class LiveState:
    """The current picture of a sweep, folded from log events."""

    def __init__(self) -> None:
        self.run_id = ""
        self.total = 0
        self.done = 0
        self.failed = 0
        self.batches = 0
        self.window_count = 0
        self.decision_count = 0
        self.tenancy_count = 0
        self.profile_count = 0
        self.ended = False
        #: pid -> job name currently executing there
        self.active: dict[int, str] = {}
        #: every pid that ever started a job (worker utilization denominator)
        self.workers: set[int] = set()
        #: (workload, scheme, app) -> (cycle, latest window counter args)
        self.latest_window: dict[tuple[str, str, int], tuple[float, dict]] = {}
        #: most recent decision instant, if any
        self.last_decision: Event | None = None
        #: most recent tenancy (roster-change) instant, if any
        self.last_tenancy: Event | None = None
        self.last_error = ""
        #: wall span (log microseconds) from the first job's start to
        #: the last job's end: the completion-rate window
        self._t_first: float | None = None
        self._t_last: float | None = None

    def apply(self, event: Event) -> None:
        cat = event.cat
        if event.ph == "C":
            if cat == "window":
                self._window(event)
        elif cat == "job":
            if event.ph == "X":
                self.done += 1
                self._finished(event.name)
                end = event.ts + event.dur
                if self._t_first is None or event.ts < self._t_first:
                    self._t_first = event.ts
                self._t_last = end if self._t_last is None else max(self._t_last, end)
            elif event.name == "job_start":
                pid = int(event.args["pid"])
                self.active[pid] = str(event.args["job"])
                self.workers.add(pid)
            elif event.name == "job_fail":
                self.failed += 1
                self._finished(str(event.args["job"]))
                self.last_error = f"{event.args['job']}: {event.args['error']}"
        elif cat == "exec" and event.name == "batch":
            # Batches accumulate: one CLI run sweeps alone profiles,
            # then a surface, then schemes — ETA covers all of them.
            self.total += int(event.args["total"])
            self.batches += 1
        elif cat in ("pbs", "ctrl"):
            self.decision_count += 1
            self.last_decision = event
        elif cat == "tenancy":
            self.tenancy_count += 1
            self.last_tenancy = event
        elif cat == "profile":
            self.profile_count += 1
        elif event.name == "stream_end":
            self.ended = True
            self.active.clear()

    def _window(self, event: Event) -> None:
        workload, scheme, app = event.name.split("|")
        self.latest_window[(workload, scheme, int(app[len("app"):]))] = (
            event.ts, event.args,
        )
        self.window_count += 1

    def _finished(self, job: str) -> None:
        for pid, name in self.active.items():
            if name == job:
                del self.active[pid]
                return

    # -- derived signals --------------------------------------------------

    def jobs_per_sec(self) -> float:
        """Completion rate over the span from first start to last end."""
        if self._t_first is None or self._t_last is None:
            return 0.0
        span_s = (self._t_last - self._t_first) / 1e6
        if span_s <= 0:
            return 0.0
        return self.done / span_s

    def eta_s(self) -> float | None:
        """Seconds until the sweep finishes, at the current rate."""
        rate = self.jobs_per_sec()
        remaining = max(0, self.total - self.done - self.failed)
        if rate <= 0 or not remaining:
            return None
        return remaining / rate

    def queue_depth(self) -> int:
        """Jobs submitted but not yet started anywhere."""
        return max(0, self.total - self.done - self.failed - len(self.active))


def render_lines(state: LiveState) -> list[str]:
    """Render one dashboard frame as a list of lines."""
    rate = state.jobs_per_sec()
    eta = state.eta_s()
    head = (
        f"live {state.run_id or 'run'} — jobs {state.done}/{state.total}"
        + (f" ({state.failed} failed)" if state.failed else "")
        + f"  workers {len(state.active)}/{max(len(state.workers), 1)}"
        + f"  queue {state.queue_depth()}"
        + (f"  {rate:.2f} jobs/s" if rate else "")
        + (f"  ETA {eta:.0f}s" if eta is not None else "")
        + ("  [done]" if state.ended else "")
    )
    lines = [head]
    for pid, job in sorted(state.active.items())[:_MAX_ACTIVE_ROWS]:
        lines.append(f"  run  pid {pid}: {job}")
    series = sorted(state.latest_window.items())
    for (workload, scheme, app_id), (cycle, w) in series[:_MAX_SERIES_ROWS]:
        lines.append(
            f"  {workload} {scheme} app{app_id} @{cycle:>9.0f}  "
            f"IPC {w['ipc']:.3f}  EB {w['eb']:.3f}  BW {w['bw']:.3f}  "
            f"CMR {w['cmr']:.3f}"
        )
    if len(series) > _MAX_SERIES_ROWS:
        lines.append(f"  ... {len(series) - _MAX_SERIES_ROWS} more series")
    tail = (
        f"  windows {state.window_count}  decisions {state.decision_count}"
        f"  hot frames {state.profile_count}"
    )
    if state.last_decision is not None:
        d = state.last_decision
        tail += f"  last {d.args.get('scheme', '?')}.{d.name.split('.', 1)[-1]} @{d.ts:.0f}"
    lines.append(tail)
    if state.last_tenancy is not None:
        t = state.last_tenancy
        roster = ",".join(str(a) for a in t.args.get("roster", []))
        lines.append(
            f"  tenancy x{state.tenancy_count}: {t.args.get('event', '?')} "
            f"app{t.args.get('app', '?')} @{t.ts:.0f}  roster [{roster}]"
        )
    if state.last_error:
        lines.append(f"  FAIL {state.last_error:.100s}")
    return lines


class Dashboard:
    """Renders a :class:`LiveState` as log events arrive.

    On a TTY the panel is redrawn in place at most once per
    ``min_interval_s`` (plus always on ``stream_end``); on anything else
    it degrades to plain log lines for job completions and failures, so
    redirected output records progress without control characters.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        run_id: str = "",
        min_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.state = LiveState()
        self.state.run_id = run_id
        self.stream: TextIO = sys.stderr if stream is None else stream
        isatty = getattr(self.stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_render: float | None = None
        self._height = 0
        self.renders = 0

    def on_event(self, event: Event) -> None:
        """Fold one log event and redraw if due."""
        self.state.apply(event)
        if self._tty:
            mark = self._clock()
            due = (
                self._last_render is None
                or mark - self._last_render >= self.min_interval_s
            )
            if due or self.state.ended:
                self._render()
                self._last_render = mark
        else:
            line = self._plain_line(event)
            if line:
                print(line, file=self.stream, flush=True)

    def _render(self) -> None:
        lines = render_lines(self.state)
        frame = ""
        if self._height:
            # Cursor up over the previous frame, erase to end of screen,
            # repaint: the panel updates in place.
            frame += f"\x1b[{self._height}F\x1b[0J"
        frame += "\n".join(lines) + "\n"
        self.stream.write(frame)
        self.stream.flush()
        self._height = len(lines)
        self.renders += 1

    def _plain_line(self, event: Event) -> str:
        state = self.state
        if event.cat == "job" and event.ph == "X":
            return (
                f"[{state.done}/{state.total}] {event.name} "
                f"({event.dur / 1e6:.1f}s, worker {event.args.get('worker', '?')})"
            )
        if event.cat == "job" and event.name == "job_fail":
            return f"FAIL {event.args['job']}: {event.args['error']}"
        if event.name == "stream_end":
            return (
                f"stream end: {state.done} done, {state.failed} failed, "
                f"{state.window_count} windows, "
                f"{state.decision_count} decisions"
            )
        return ""


def watch(
    path: Path,
    *,
    follow: bool = True,
    stream: TextIO | None = None,
    run_id: str = "",
    poll_s: float = 0.2,
    timeout_s: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> LiveState:
    """Tail a ``trace.jsonl`` event log into a dashboard; return final state.

    With ``follow=True`` the file is polled until its ``stream_end``
    instant arrives (or ``timeout_s`` elapses — ``None`` waits forever);
    with ``follow=False`` whatever is on disk is replayed once.  Partial
    trailing lines (the writer mid-append) are retried on the next poll.
    Every batch of complete lines is validated by
    :func:`~repro.obs.trace.parse_events` against the log's header.
    """
    path = Path(path)
    dash = Dashboard(stream=stream, run_id=run_id, clock=clock)
    pending = ""
    header: dict | None = None
    deadline = None if timeout_s is None else clock() + timeout_s
    with path.open("r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read()
            if chunk:
                pending += chunk
                lines, _, pending = pending.rpartition("\n")
                records = [json.loads(ln) for ln in lines.split("\n") if ln.strip()]
                if header is None and records:
                    header = records.pop(0)
                    if not dash.state.run_id:
                        dash.state.run_id = str(header.get("run_id", ""))
                if header is not None:
                    for event in parse_events([header, *records])[1]:
                        dash.on_event(event)
                        if dash.state.ended:
                            return dash.state
                continue
            if not follow:
                break
            if deadline is not None and clock() >= deadline:
                break
            sleep(poll_s)
    return dash.state
