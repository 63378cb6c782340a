"""The process-pool job runner.

Every experiment in this reproduction is dominated by embarrassingly
parallel simulation sweeps: a two-application surface is 64 independent
runs, an alone profile is 8, and a scheme comparison is one run per
(workload, scheme).  :func:`run_jobs` maps a picklable worker function
over a list of picklable job specs with a ``ProcessPoolExecutor``,
preserving the order of the input list in the returned results so
parallel sweeps are bit-identical to serial ones.

Worker-count resolution (:func:`resolve_jobs`):

1. an explicit ``n_jobs`` argument (CLI ``--jobs``);
2. the ``REPRO_JOBS`` environment variable;
3. ``os.cpu_count()``.

``n_jobs=1`` (or a single job) falls back to a plain in-process loop —
no pool, no pickling — so unit tests and cache hits pay no overhead.
A failing job aborts the batch and is re-raised as :class:`JobError`
carrying the failing spec, the original exception as its cause, the
job's duration up to the failure, and the worker-side traceback text
(which cannot cross the process boundary as an object) in ``args``.
``KeyboardInterrupt`` is never wrapped: it cancels the outstanding
futures and propagates as itself.

Telemetry: when the ambient tracer (:func:`repro.obs.get_tracer`) is
enabled, the parent records each batch as a ``cat="exec"`` ``batch``
instant, every job as a ``cat="job"`` span carrying the worker's pid and
its queue wait (time between submission and the worker actually
starting, i.e. time spent waiting for a pool slot), and a failing job as
a ``job_fail`` instant before it raises :class:`JobError`.  Jobs are
timed *inside* the worker process.  Progress callbacks may opt into
per-job timing by accepting a fourth argument: ``progress(done, total,
spec, elapsed_s)``; three-argument callbacks keep working unchanged, and
:class:`ProgressThrottle` wraps either kind to cap the redraw rate.

Live telemetry: when the ambient publisher (:func:`repro.obs.live.
get_publisher`) is enabled, each pool worker is initialized with its
own :class:`~repro.obs.live.QueuePublisher` onto the parent hub's queue
and sends only what the parent cannot know: a ``job_start`` message as
each job begins, its cProfile hot frames under ``--profile``, and its
metrics-registry delta — see :mod:`repro.obs.live`.  With the default
:class:`~repro.obs.live.NullPublisher` the entire machinery is one
attribute read.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from typing import Any, Callable, Iterable, TypeVar

from repro.obs.live import (
    QueuePublisher,
    get_publisher,
    profile_frames,
    set_publisher,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import NullTracer, Tracer, get_tracer

__all__ = [
    "JOBS_ENV_VAR",
    "JobError",
    "ProgressFn",
    "ProgressThrottle",
    "resolve_jobs",
    "run_jobs",
]

#: Environment variable consulted when no explicit ``n_jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

S = TypeVar("S")
R = TypeVar("R")

#: ``progress(done, total, spec)`` is invoked after each job completes,
#: in completion order; ``done`` counts completed jobs so a CLI can
#: render "12/64".  A callback that accepts a fourth positional
#: argument additionally receives the job's elapsed seconds.
ProgressFn = Callable[..., None]


class JobError(RuntimeError):
    """A job of a parallel batch failed.

    The failing spec is embedded in the message (and kept on ``.spec``)
    so a 64-combination sweep failure names the combination that died;
    the worker's original exception is chained as ``__cause__`` and the
    job's duration up to the failure is kept on ``.duration`` (seconds;
    ``None`` when unknown).  The worker-side traceback text is preserved
    as ``args[1]`` (and ``.remote_traceback``): for pool jobs the
    original's traceback objects do not cross the process boundary, so
    without this the failing *worker* frame would be unrecoverable from
    the parent.
    """

    def __init__(
        self,
        spec: object,
        cause: BaseException,
        duration: float | None = None,
    ) -> None:
        remote = _traceback_text(cause)
        after = f" after {duration:.3f}s" if duration is not None else ""
        super().__init__(
            f"simulation job failed{after}: {spec!r} "
            f"({type(cause).__name__}: {cause})",
            remote,
        )
        self.spec = spec
        self.duration = duration
        self.remote_traceback = remote


def _traceback_text(cause: BaseException) -> str:
    """The worker-side traceback of ``cause``, as text.

    ``concurrent.futures`` re-raises remote failures with the original
    traceback rendered into a ``_RemoteTraceback`` chained as the
    cause's ``__cause__``; ``format_exception`` follows that chain, so
    one call covers both in-process and cross-process failures.
    """
    return "".join(
        traceback.format_exception(type(cause), cause, cause.__traceback__)
    ).rstrip()


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve the worker count: explicit > ``$REPRO_JOBS`` > cpu count."""
    if n_jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                n_jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR}={env!r} is not an integer"
                ) from None
        else:
            n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs


def _accepts_elapsed(progress: ProgressFn) -> bool:
    """Does the callback take a fourth (elapsed-seconds) argument?

    Extending the hook is opt-in by arity so every existing
    three-argument callback keeps working; inspection failures (builtins,
    exotic callables) conservatively fall back to the legacy signature.
    """
    try:
        sig = inspect.signature(progress)
    except (TypeError, ValueError):
        return False
    positional = 0
    for param in sig.parameters.values():
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            return True
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 4


def _job_name(spec: object) -> str:
    """A short display name for a job's trace span."""
    tag = getattr(spec, "tag", None)
    if isinstance(tag, tuple) and tag:
        return "job:" + "/".join(str(part) for part in tag)
    return f"job:{type(spec).__name__}"


class ProgressThrottle:
    """Rate-limits a progress callback to one delivery per interval.

    A 64-job sweep on a fast cache emits hundreds of completions per
    second; redrawing a TTY line for each is wasted stderr traffic.
    The throttle forwards at most one call per ``min_interval_s`` —
    plus, always, the final ``done == total`` call so the finished line
    lands — and keeps the 3-arg/4-arg hook contract: it accepts the
    elapsed argument itself and forwards it only when the wrapped
    callback does.
    """

    def __init__(
        self,
        progress: ProgressFn,
        min_interval_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.progress = progress
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last: float | None = None
        self._with_elapsed = _accepts_elapsed(progress)
        self.delivered = 0
        self.dropped = 0

    def __call__(
        self, done: int, total: int, spec: object, elapsed: float = 0.0
    ) -> None:
        mark = self._clock()
        if done < total and (
            self._last is not None
            and mark - self._last < self.min_interval_s
        ):
            self.dropped += 1
            return
        self._last = mark
        self.delivered += 1
        if self._with_elapsed:
            self.progress(done, total, spec, elapsed)
        else:
            self.progress(done, total, spec)


def _init_live_worker(channel: Any, config: dict) -> None:
    """Pool-worker initializer for live-telemetry runs.

    Installs a worker-side :class:`~repro.obs.live.QueuePublisher` onto
    the parent's queue (the one sanctioned worker-side ambient install —
    each child owns its process-local slot) and resets the worker's
    metrics registry: a forked child inherits the parent's counters, and
    since workers publish snapshot-then-reset *deltas*, starting from
    the parent's totals would double-count them on merge.
    """
    set_publisher(QueuePublisher(channel, **config))
    get_metrics().reset()
    if config.get("profile"):
        from repro.sim.engine import set_engine_profiling

        set_engine_profiling(True)


def _timed_call(worker: Callable[[S], R], spec: S) -> tuple[R, float, int]:
    """Pool worker wrapper: run the job and report its own wall time.

    Returns ``(result, elapsed_seconds, worker_pid)`` so the parent can
    separate compute time from queue wait and attribute the job to a
    worker track in the trace; a failure carries the pid as
    ``worker_pid`` on the exception.  With live telemetry on, it sends
    the parent what only the worker knows: ``job_start``, the job's
    cProfile hot frames when profiling, and — in pool workers — the
    metrics-registry delta the job accumulated.  Module-level so it
    pickles.
    """
    publisher = get_publisher()
    pid = os.getpid()
    prof: cProfile.Profile | None = None
    if publisher.enabled:
        publisher.publish({"type": "job_start", "job": _job_name(spec), "pid": pid})
        if publisher.profile:
            prof = cProfile.Profile()
    t0 = time.perf_counter()
    try:
        value = worker(spec) if prof is None else prof.runcall(worker, spec)
    except Exception as exc:
        exc.worker_pid = pid  # type: ignore[attr-defined]
        raise
    elapsed = time.perf_counter() - t0
    if prof is not None:
        publisher.publish(
            {
                "type": "profile",
                "job": _job_name(spec),
                "pid": pid,
                "frames": profile_frames(prof, top=publisher.profile_top),
            }
        )
    if publisher.worker:
        # Ship this job's metrics delta; the parent merges it into the
        # ambient registry.  The parent/serial path skips this — its
        # registry *is* the ambient one, nothing to ship.
        registry = get_metrics()
        snapshot = registry.snapshot(timelines=True)
        registry.reset()
        if (
            snapshot["counters"]
            or snapshot["gauges"]
            or snapshot["timers"]
            or snapshot.get("timeline_points")
        ):
            publisher.publish(
                {
                    "type": "metrics",
                    "label": f"pid{pid}",
                    "snapshot": snapshot,
                }
            )
    return value, elapsed, pid


def _job_failed(
    tracer: Tracer | NullTracer, spec: object, exc: BaseException, duration: float
) -> JobError:
    """Log a ``job_fail`` instant and build the :class:`JobError` to raise."""
    if tracer.enabled:
        tracer.instant(
            "job_fail",
            cat="job",
            job=_job_name(spec),
            pid=getattr(exc, "worker_pid", os.getpid()),
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobError(spec, exc, duration=duration)


def _notify(
    progress: ProgressFn | None,
    with_elapsed: bool,
    done: int,
    total: int,
    spec: object,
    elapsed: float,
) -> None:
    if progress is None:
        return
    if with_elapsed:
        progress(done, total, spec, elapsed)
    else:
        progress(done, total, spec)


def run_jobs(
    worker: Callable[[S], R],
    specs: Iterable[S],
    n_jobs: int | None = None,
    progress: ProgressFn | None = None,
) -> list[R]:
    """Map ``worker`` over ``specs``, returning results in spec order.

    ``worker`` and every spec must be picklable (a module-level function
    and frozen dataclasses / plain tuples).  Results come back in the
    order of ``specs`` regardless of completion order, so callers can
    ``zip`` them against the spec list.
    """
    specs = list(specs)
    total = len(specs)
    if total == 0:
        return []
    n_jobs = resolve_jobs(n_jobs)
    tracer = get_tracer()
    publisher = get_publisher()
    with_elapsed = progress is not None and _accepts_elapsed(progress)
    if tracer.enabled:
        # The batch instant seeds the dashboard's total/ETA.
        tracer.instant("batch", cat="exec", total=total)

    if n_jobs == 1 or total == 1:
        results: list[R] = []
        for done, spec in enumerate(specs, start=1):
            t0 = time.perf_counter()
            try:
                value, elapsed, _pid = _timed_call(worker, spec)
            except Exception as exc:
                raise _job_failed(
                    tracer, spec, exc, time.perf_counter() - t0
                ) from exc
            results.append(value)
            if tracer.enabled:
                dur_us = elapsed * 1e6
                tracer.complete(
                    _job_name(spec),
                    ts=tracer.now_us() - dur_us,
                    dur=dur_us,
                    cat="job",
                    worker="main",
                    queue_wait_s=0.0,
                )
            _notify(progress, with_elapsed, done, total, spec, elapsed)
        return results

    # Worker-side timing is only worth the extra pickling when someone
    # consumes it: an enabled tracer, an elapsed-aware callback, or the
    # live hub.
    timed = tracer.enabled or with_elapsed or publisher.enabled
    call = partial(_timed_call, worker) if timed else worker
    pool_kwargs: dict = {}
    if isinstance(publisher, QueuePublisher):
        # fork-inherited queue: the initializer installs a worker-side
        # publisher bound to the parent hub's channel
        pool_kwargs = {
            "initializer": _init_live_worker,
            "initargs": (publisher.channel, publisher.worker_config()),
        }

    slots: list[R | None] = [None] * total
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, total), **pool_kwargs
    ) as pool:
        submitted = time.perf_counter()
        futures = {pool.submit(call, spec): i for i, spec in enumerate(specs)}
        done = 0
        try:
            for future in as_completed(futures):
                i = futures[future]
                try:
                    value = future.result()
                except Exception as exc:
                    raise _job_failed(
                        tracer, specs[i], exc, time.perf_counter() - submitted
                    ) from exc
                if timed:
                    value, elapsed, worker_pid = value  # type: ignore[misc]
                    if tracer.enabled:
                        wait = max(
                            0.0,
                            time.perf_counter() - submitted - elapsed,
                        )
                        dur_us = elapsed * 1e6
                        tracer.complete(
                            _job_name(specs[i]),
                            ts=tracer.now_us() - dur_us,
                            dur=dur_us,
                            cat="job",
                            worker=worker_pid,
                            queue_wait_s=round(wait, 6),
                        )
                else:
                    elapsed = time.perf_counter() - submitted
                slots[i] = value  # type: ignore[assignment]
                done += 1
                _notify(progress, with_elapsed, done, total, specs[i], elapsed)
        except (Exception, KeyboardInterrupt):
            # Abort the rest of the batch promptly on first failure or
            # Ctrl-C.  Deliberately narrower than BaseException: a
            # SystemExit/GeneratorExit unwinds through the context
            # manager's own cleanup instead of an eager cancel, and
            # KeyboardInterrupt is never wrapped in JobError — it
            # propagates as itself so callers can tell "user stopped
            # the sweep" from "a job died".
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return slots  # type: ignore[return-value]
