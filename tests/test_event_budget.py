"""The event-fold gate: a co-run schedules fewer events than before the
folds.

The hot-path refactor folded per-stage callbacks into fewer scheduled
events (fill fan-out, retry re-drives, compute completions).  Events
are seed-determined, so the count is exact on any machine and either
backend; a change that unfolds a stage shows up here as a hard failure,
with no benchmark run needed.
"""

import pytest

from repro.config import small_config
from repro.sim import engine, native
from repro.sim.engine import Simulator
from repro.workloads.table4 import app_by_abbr

#: Events the pre-fold engine scheduled for this exact case (BLK+TRD on
#: ``small_config()``, seed 7, 30k cycles at TLP 8/8), recorded at
#: commit ec628be as the quick-mode ``corun`` baseline of the retired
#: engine bench.  A bound, not a pin: it is never re-recorded.
PRE_FOLD_CORUN_EVENTS = 10786

BACKENDS = [
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.available(),
            reason=f"native kernel unavailable: {native.load_error()}",
        ),
    ),
    "python",
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_corun_events_below_pre_fold_baseline(backend):
    previous = engine._set_native(backend == "native")
    try:
        sim = Simulator(
            small_config(), [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7
        )
        sim.run(30_000, warmup=3_000, initial_tlp={0: 8, 1: 8})
    finally:
        engine._set_native(previous)
    assert sim.backend == backend
    assert sim.events_processed < PRE_FOLD_CORUN_EVENTS, (
        f"{backend}: corun scheduled {sim.events_processed} events, not "
        f"below the pre-fold baseline of {PRE_FOLD_CORUN_EVENTS}"
    )
