"""Per-application statistics collection.

The paper's mechanisms consume exactly three runtime signals per
application — L1 miss rate, L2 miss rate, and attained DRAM bandwidth —
sampled over windows (Figure 8).  :class:`StatsCollector` maintains the
cumulative counters; :meth:`StatsCollector.window` returns the per-window
deltas as :class:`WindowSample` objects, from which BW, CMR and EB are
derived the same way the hardware PBS unit would compute them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.units import (
    Count,
    Cycles,
    Fraction,
    FractionOfPeak,
    Insts,
    Ipc,
    Lines,
    LinesPerCycle,
)

__all__ = ["AppStats", "WindowSample", "StatsCollector"]


@dataclass(slots=True)
class AppStats:
    """Cumulative counters for one application.

    Slotted: the engine increments these fields inline on every event,
    so the accumulator is kept a fixed-layout record.
    """

    insts: Insts = 0
    l1_accesses: Count = 0
    l1_misses: Count = 0
    l2_accesses: Count = 0
    l2_misses: Count = 0
    dram_lines: Lines = 0
    mem_requests: Count = 0
    mem_latency_sum: Cycles = 0.0
    row_hits: Count = 0
    row_misses: Count = 0

    def copy(self) -> "AppStats":
        return AppStats(*(getattr(self, f) for f in _APP_STAT_FIELDS))

    def delta(self, earlier: "AppStats") -> "AppStats":
        return AppStats(
            *(getattr(self, f) - getattr(earlier, f) for f in _APP_STAT_FIELDS)
        )


_APP_STAT_FIELDS = tuple(f.name for f in fields(AppStats))


@dataclass(frozen=True)
class WindowSample:
    """Derived per-application metrics over one observation window.

    ``bw`` is the attained DRAM bandwidth normalized to the theoretical
    peak (Table III); ``cmr`` is the product of L1 and L2 miss rates; and
    ``eb = bw / cmr`` is the paper's effective bandwidth.
    """

    app_id: int
    cycles: Cycles
    insts: Insts
    ipc: Ipc
    l1_miss_rate: Fraction
    l2_miss_rate: Fraction
    cmr: Fraction
    bw: FractionOfPeak
    eb: FractionOfPeak
    avg_mem_latency: Cycles
    row_hit_rate: Fraction

    @classmethod
    def from_counters(
        cls,
        app_id: int,
        counters: AppStats,
        cycles: Cycles,
        peak_lines_per_cycle: LinesPerCycle,
    ) -> "WindowSample":
        if cycles <= 0:
            raise ValueError("window must span a positive number of cycles")
        l1_mr = (
            counters.l1_misses / counters.l1_accesses if counters.l1_accesses else 1.0
        )
        l2_mr = (
            counters.l2_misses / counters.l2_accesses if counters.l2_accesses else 1.0
        )
        cmr = l1_mr * l2_mr
        bw = counters.dram_lines / cycles / peak_lines_per_cycle
        row_total = counters.row_hits + counters.row_misses
        return cls(
            app_id=app_id,
            cycles=cycles,
            insts=counters.insts,
            ipc=counters.insts / cycles,
            l1_miss_rate=l1_mr,
            l2_miss_rate=l2_mr,
            cmr=cmr,
            bw=bw,
            eb=bw / cmr if cmr > 0 else 0.0,
            avg_mem_latency=(
                counters.mem_latency_sum / counters.mem_requests
                if counters.mem_requests
                else 0.0
            ),
            row_hit_rate=(counters.row_hits / row_total) if row_total else 0.0,
        )


class StatsCollector:
    """Cumulative and windowed statistics for every application.

    The engine increments the ``apps`` counters inline (the native
    kernel syncs its copy into them) and reports memory latencies via
    :meth:`note_mem_request`; controllers read :meth:`cut_window`.
    """

    def __init__(
        self, app_ids: list[int], peak_lines_per_cycle: LinesPerCycle
    ) -> None:
        self.peak_lines_per_cycle: LinesPerCycle = peak_lines_per_cycle
        self.apps: dict[int, AppStats] = {a: AppStats() for a in app_ids}
        self._window_base: dict[int, AppStats] = {a: AppStats() for a in app_ids}
        self._window_start: Cycles = 0.0
        self._measure_base: dict[int, AppStats] = {a: AppStats() for a in app_ids}
        self._measure_start: Cycles = 0.0

    @property
    def window_start(self) -> Cycles:
        """Cycle of the last window cut (tenancy seals check this)."""
        return self._window_start

    def add_app(self, app_id: int) -> None:
        """Open a fresh stats stream for an application attaching mid-run.

        Window and measurement bases start at zero, so an arrival's
        first window/measurement delta covers exactly what it did since
        attaching — nothing is inherited, nothing double-counted.
        """
        if app_id in self.apps:
            raise ValueError(f"app {app_id} already has a stats stream")
        self.apps[app_id] = AppStats()
        self._window_base[app_id] = AppStats()
        self._measure_base[app_id] = AppStats()

    # --- event hooks -------------------------------------------------------

    def note_mem_request(self, app_id: int, latency: Cycles) -> None:
        s = self.apps[app_id]
        s.mem_requests += 1
        s.mem_latency_sum += latency

    # --- windows -----------------------------------------------------------

    def cut_window(self, now: Cycles) -> dict[int, WindowSample]:
        """Return samples since the last cut and start a new window."""
        samples = self.window(now)
        self._window_base = {a: s.copy() for a, s in self.apps.items()}
        self._window_start = now
        return samples

    def window(self, now: Cycles) -> dict[int, WindowSample]:
        """Samples since the last cut, without resetting the window."""
        cycles = now - self._window_start
        return {
            a: WindowSample.from_counters(
                a, self.apps[a].delta(self._window_base[a]), cycles,
                self.peak_lines_per_cycle,
            )
            for a in self.apps
        }

    # --- measurement region (warmup exclusion) -----------------------------

    def start_measurement(self, now: Cycles) -> None:
        """Mark the beginning of the measured region (end of warmup)."""
        self._measure_base = {a: s.copy() for a, s in self.apps.items()}
        self._measure_start = now

    def measurement(self, now: Cycles) -> dict[int, WindowSample]:
        """Samples since :meth:`start_measurement` (whole measured run)."""
        cycles = now - self._measure_start
        return {
            a: WindowSample.from_counters(
                a, self.apps[a].delta(self._measure_base[a]), cycles,
                self.peak_lines_per_cycle,
            )
            for a in self.apps
        }
