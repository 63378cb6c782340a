"""Shared fixtures for the test suite.

Simulation-backed tests use the tiny ``small_config`` GPU and short runs
so the whole suite stays fast; the medium-scale behavioural checks live
in ``test_integration.py``.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig, medium_config, small_config
from repro.core.runner import RunLengths
from repro.sim import engine
from repro.sim.address import AddressMap
from repro.sim.engine import Simulator
from repro.workloads.table4 import app_by_abbr


@pytest.fixture
def python_engine():
    """Run simulations on the Python reference engine.

    For tests that inspect component internals (cache contents, queues,
    warp state) during or after a run: a native run keeps that state in
    the C kernel and copies back only the counters.
    """
    previous = engine._set_native(False)
    yield
    engine._set_native(previous)


@pytest.fixture
def small_cfg() -> GPUConfig:
    return small_config()


@pytest.fixture
def medium_cfg() -> GPUConfig:
    return medium_config()


@pytest.fixture
def addr_map(small_cfg: GPUConfig) -> AddressMap:
    return AddressMap.from_config(small_cfg)


@pytest.fixture
def quick_lengths() -> RunLengths:
    return RunLengths.quick()


@pytest.fixture
def blk_trd_sim(small_cfg: GPUConfig) -> Simulator:
    """A two-application simulator on the tiny GPU (not yet run)."""
    return Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])


def run_small_pair(
    config: GPUConfig,
    abbr_a: str,
    abbr_b: str,
    tlp_a: int = 8,
    tlp_b: int = 8,
    cycles: int = 8000,
    warmup: int = 2000,
    seed: int = 7,
    **kwargs,
):
    """Convenience: run a small two-app simulation and return the result."""
    sim = Simulator(
        config, [app_by_abbr(abbr_a), app_by_abbr(abbr_b)], seed=seed, **kwargs
    )
    return sim.run(cycles, warmup=warmup, initial_tlp={0: tlp_a, 1: tlp_b})
