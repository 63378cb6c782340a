#!/usr/bin/env python
"""Engine hot-path throughput benchmark -> ``BENCH_engine.json``.

Measures simulated-cycles/sec and events/sec on three representative
workloads:

* ``alone``       — one application, fixed TLP (the profiling unit);
* ``corun``       — two co-running applications, fixed combination
                    (the surface-sweep unit, the refactor's 2x target);
* ``pbs-dynamic`` — a co-run driven by the online PBS controller
                    (the long dynamic-scheme unit).

Usage::

    PYTHONPATH=src python scripts/bench_report.py                 # full run
    PYTHONPATH=src python scripts/bench_report.py --quick         # CI smoke
    PYTHONPATH=src python scripts/bench_report.py --set-baseline  # (re)record

Results are written to ``BENCH_engine.json`` at the repo root.  The
file keeps one section per mode (``full``/``quick``), each holding a
``baseline`` (recorded once, pre-refactor, via ``--set-baseline``), the
``current`` measurement, and the per-case ``speedup`` ratio of current
over baseline cycles/sec.  Ratios are only meaningful when baseline and
current were measured on the same machine.

Every run is additionally appended to ``results/bench_history.jsonl``
(one record per mode, schema-stamped); ``repro bench history`` renders
the trend against the committed baseline.  ``--no-history`` skips the
append for throwaway measurements.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.config import small_config  # noqa: E402
from repro.core.pbs import PBSController  # noqa: E402
from repro.core.runner import run_combo  # noqa: E402
from repro.obs.bench import append_bench_history  # noqa: E402
from repro.obs.io import atomic_write_text  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.workloads.table4 import app_by_abbr  # noqa: E402

DEFAULT_OUT = ROOT / "BENCH_engine.json"
DEFAULT_HISTORY = ROOT / "results" / "bench_history.jsonl"
SCHEMA = 1

#: case name -> (apps, combo, controller factory or None)
CASES = ("alone", "corun", "pbs-dynamic")

#: simulated cycles per case, per mode
LENGTHS = {
    "full": {"alone": 200_000, "corun": 200_000, "pbs-dynamic": 200_000},
    "quick": {"alone": 30_000, "corun": 30_000, "pbs-dynamic": 40_000},
}


def _build(case: str, cycles: int):
    """(simulator, run kwargs) for one benchmark case."""
    cfg = small_config()
    if case == "alone":
        sim = Simulator(cfg, [app_by_abbr("BLK")], seed=7)
        initial = {0: 8}
    elif case == "corun":
        sim = Simulator(cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7)
        initial = {0: 8, 1: 8}
    elif case == "pbs-dynamic":
        controller = PBSController("ws", n_apps=2, sample_period=800)
        sim = Simulator(
            cfg, [app_by_abbr("BFS"), app_by_abbr("BLK")],
            controller=controller, seed=9,
        )
        initial = {0: 24, 1: 24}
    else:  # pragma: no cover - guarded by CASES
        raise ValueError(f"unknown case {case!r}")
    return sim, {"warmup": cycles // 10, "initial_tlp": initial}


def measure_case(case: str, cycles: int, repeat: int) -> dict:
    """Best-of-``repeat`` wall time for one case at ``cycles`` cycles."""
    best = None
    events = 0
    for _ in range(repeat):
        sim, kwargs = _build(case, cycles)
        t0 = time.perf_counter()
        sim.run(cycles, **kwargs)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
            events = sim.events_processed
    return {
        "cycles": cycles,
        "events": events,
        "wall_s": round(best, 6),
        "cycles_per_sec": round(cycles / best, 1),
        "events_per_sec": round(events / best, 1),
    }


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def run_mode(mode: str, repeat: int) -> dict:
    cases = {}
    for case in CASES:
        cycles = LENGTHS[mode][case]
        cases[case] = measure_case(case, cycles, repeat)
        print(
            f"{mode:5s} {case:12s} {cases[case]['cycles_per_sec']:>12,.0f} cyc/s"
            f" {cases[case]['events_per_sec']:>12,.0f} ev/s"
        )
    return {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": cases,
    }


def _baseline_conflicts(
    modes: dict, mode: str, measured: dict
) -> list[tuple[str, list[str]]]:
    """Cross-mode provenance conflicts for recording ``measured`` as the
    ``mode`` baseline: ``(other_mode, [difference, ...])`` for every other
    mode whose baseline was taken at a different git revision or on a
    different machine/interpreter."""
    conflicts: list[tuple[str, list[str]]] = []
    for other_mode, other in sorted(modes.items()):
        if other_mode == mode or not isinstance(other, dict):
            continue
        base = other.get("baseline")
        if not isinstance(base, dict):
            continue
        diffs = [
            f"{key}: baseline {base.get(key)!r} vs this run "
            f"{measured.get(key)!r}"
            for key in ("git", "machine", "python")
            if base.get(key) is not None
            and base.get(key) != measured.get(key)
        ]
        if diffs:
            conflicts.append((other_mode, diffs))
    return conflicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short runs (CI smoke); records the 'quick' mode")
    parser.add_argument("--set-baseline", action="store_true",
                        help="record this measurement as the mode's baseline")
    parser.add_argument("--force", action="store_true",
                        help="with --set-baseline: record even when another "
                             "mode's baseline has conflicting git/machine "
                             "provenance")
    parser.add_argument("--repeat", type=int, default=None,
                        help="best-of repetitions (default: 3 full, 2 quick)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT.name})")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help="perf-history ledger to append to "
                             f"(default {DEFAULT_HISTORY.relative_to(ROOT)})")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the bench_history.jsonl append")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    repeat = args.repeat if args.repeat is not None else (2 if args.quick else 3)

    report = {"schema": SCHEMA, "modes": {}}
    if args.out.exists():
        try:
            report = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            print(f"warning: {args.out} unreadable, starting fresh", file=sys.stderr)
    report.setdefault("schema", SCHEMA)
    modes = report.setdefault("modes", {})
    section = modes.setdefault(mode, {})

    measured = run_mode(mode, repeat)
    if args.set_baseline and not args.force:
        # Ratios are only meaningful same-machine (see module docstring),
        # and the modes are compared side by side: a --quick baseline
        # recorded on a different machine or commit than the full-mode
        # one silently corrupts the file's provenance story.  Refuse
        # cross-mode conflicts; re-recording the *same* mode's baseline
        # is always an explicit act and stays allowed.
        conflicts = _baseline_conflicts(modes, mode, measured)
        if conflicts:
            for other_mode, diffs in conflicts:
                print(
                    f"refusing --set-baseline: the existing {other_mode!r} "
                    f"baseline's provenance disagrees with this {mode!r} run:",
                    file=sys.stderr,
                )
                for diff in diffs:
                    print(f"  {diff}", file=sys.stderr)
            print(
                "re-record that baseline on this machine/commit first, or "
                "pass --force to record the conflict anyway.",
                file=sys.stderr,
            )
            return 2
    if args.set_baseline or "baseline" not in section:
        section["baseline"] = measured
    section["current"] = measured
    baseline_cases = section["baseline"]["cases"]
    section["speedup"] = {
        case: round(
            measured["cases"][case]["cycles_per_sec"]
            / baseline_cases[case]["cycles_per_sec"],
            3,
        )
        for case in CASES
        if case in baseline_cases
    }

    atomic_write_text(args.out, json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    for case, ratio in section["speedup"].items():
        print(f"  speedup[{mode}/{case}] = {ratio:.3f}x")

    if not args.no_history:
        append_bench_history(
            args.history, {"mode": mode, **measured, "speedup": section["speedup"]}
        )
        print(f"appended {mode!r} run to {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
