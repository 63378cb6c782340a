"""Tests for repro.experiments.common: the disk-cached context."""

import pytest

from repro.config import small_config
from repro.core.runner import RunLengths
from repro.experiments.common import ExperimentContext, ResultStore
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.workloads.table4 import app_by_abbr


@pytest.fixture
def ctx(tmp_path):
    return ExperimentContext(
        config=small_config(),
        lengths=RunLengths.quick(),
        seed=5,
        store=ResultStore(tmp_path),
    )


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("kind", "abc", {"x": [1, 2], "y": "z"})
        assert store.load("kind", "abc") == {"x": [1, 2], "y": "z"}

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load("kind", "nope") is None

    def test_kinds_are_separate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a", "k", {"v": 1})
        assert store.load("b", "k") is None


class TestAloneCaching:
    def test_cache_hit_reproduces_profile(self, ctx):
        app = app_by_abbr("BLK")
        first = ctx.alone(app)
        second = ctx.alone(app)  # served from disk
        assert second.best_tlp == first.best_tlp
        assert second.ipc_alone == pytest.approx(first.ipc_alone)
        assert set(second.sweep) == set(first.sweep)

    def test_truncated_entry_is_recomputed(self, ctx, tmp_path):
        """A torn ``alone`` entry is a miss: recomputed, then overwritten."""
        app = app_by_abbr("BLK")
        first = ctx.alone(app)
        (entry,) = tmp_path.glob("alone-*.json")
        text = entry.read_text()
        entry.write_text(text[: len(text) // 2])
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            again = ctx.alone(app)
        finally:
            set_metrics(previous)
        assert again == first
        assert registry.counters["cache.alone.corrupt"] == 1
        assert registry.counters["cache.alone.miss"] == 1
        assert "cache.alone.hit" not in registry.counters
        assert entry.read_text() == text, "the recomputed entry overwrote it"

    @pytest.mark.parametrize("kind", ["scheme", "alone", "surface"])
    def test_wrong_shape_entry_is_recomputed(self, ctx, tmp_path, kind):
        """Valid JSON missing its keys is corrupt: a miss, not a hit."""
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
        products = {
            "scheme": lambda c: c.scheme(apps, "opt-ws"),
            "alone": lambda c: c.alone(apps[0]),
            "surface": lambda c: c.surface(apps),
        }
        products["scheme"](ctx)  # simulates and caches all three kinds
        first = products[kind](ctx)
        (entry,) = [
            e for e in tmp_path.glob(f"{kind}-*.json")
            if kind != "alone" or '"BLK"' in e.read_text()
        ]
        text = entry.read_text()
        entry.write_text("{}" if kind != "surface" else "[]")
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            again = products[kind](ctx)
        finally:
            set_metrics(previous)
        assert again == first
        assert registry.counters[f"cache.{kind}.corrupt"] == 1
        assert registry.counters[f"cache.{kind}.miss"] == 1
        assert f"cache.{kind}.hit" not in registry.counters
        assert entry.read_text() == text, "the recomputed entry overwrote it"

    def test_different_seed_different_key(self, tmp_path):
        a = ExperimentContext(small_config(), RunLengths.quick(), seed=1,
                              store=ResultStore(tmp_path))
        b = ExperimentContext(small_config(), RunLengths.quick(), seed=2,
                              store=ResultStore(tmp_path))
        app = app_by_abbr("BLK")
        a.alone(app)
        files_after_a = len(list(tmp_path.iterdir()))
        b.alone(app)
        assert len(list(tmp_path.iterdir())) > files_after_a


class TestSurfaceCaching:
    def test_surface_roundtrip(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.surface(apps)
        second = ctx.surface(apps)
        assert set(second) == set(first)
        combo = (8, 8)
        assert second[combo].samples[0].eb == pytest.approx(
            first[combo].samples[0].eb
        )


class TestSchemeCaching:
    def test_scheme_roundtrip(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.scheme(apps, "besttlp")
        second = ctx.scheme(apps, "besttlp")
        assert second.ws == pytest.approx(first.ws)
        assert second.combo == first.combo
        assert second.result.tlp_timeline == first.result.tlp_timeline

    def test_dynamic_scheme_cached_with_timeline(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.scheme(apps, "dyncta")
        second = ctx.scheme(apps, "dyncta")
        assert second.combo == first.combo
        assert len(second.result.tlp_timeline) == len(first.result.tlp_timeline)

    def test_profile_key_ignores_dynamic_lengths(self, tmp_path):
        """Changing dynamic run lengths must not invalidate surfaces."""
        import dataclasses

        base = RunLengths.quick()
        longer = dataclasses.replace(base, dynamic_cycles=base.dynamic_cycles * 2)
        a = ExperimentContext(small_config(), base, seed=1,
                              store=ResultStore(tmp_path))
        b = ExperimentContext(small_config(), longer, seed=1,
                              store=ResultStore(tmp_path))
        app = app_by_abbr("BLK")
        a.alone(app)
        n_files = len(list(tmp_path.iterdir()))
        b.alone(app)  # must be a cache hit
        assert len(list(tmp_path.iterdir())) == n_files
