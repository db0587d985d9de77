"""Tests for parallel extraction and the semantic store as the query
cache (the E1 ablations)."""

import logging

import pytest

from repro.config import ConcurrencyConfig
from repro.obs import MetricsRegistry
from repro.workloads import B2BScenario


def key(entity):
    return (entity.value("brand"), entity.value("model"), entity.source_id)


class TestGenerationCoherence:
    """Mapping reloads bump the store's generation, so instances built
    against the old mapping are never served after a reload."""

    def test_reload_survives_on_same_cache_instance(self, scenario):
        """load_mapping bumps the generation instead of swapping the
        store object, so holders of ``s2s.store`` stay current."""
        s2s = scenario.build_middleware(store=True)
        store = s2s.store
        s2s.query("SELECT product")  # warm
        assert len(store) > 0
        before = store.generation
        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(s2s.dump_mapping(),
                         lambda sid, info: scenario.connector(by_id[sid]))
        assert s2s.store is store
        assert store.generation == before + 1
        assert len(store) == 0

    def test_remapped_attribute_reextracted_after_reload(self, scenario):
        """A materialization folded before the reload cannot serve
        queries after it: the attribute is re-extracted from the live
        source."""
        s2s = scenario.build_middleware(store=True)
        query = 'SELECT product WHERE brand != "zzz"'
        result = s2s.query(query)
        assert len(result) > 0
        assert s2s.query(query).store_hit

        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(s2s.dump_mapping(),
                         lambda sid, info: scenario.connector(by_id[sid]))

        fresh = s2s.query(query)
        assert not fresh.store_hit
        assert fresh.extraction is not None
        assert sorted(map(key, fresh.entities)) == \
            sorted(map(key, result.entities))


class TestCachedMiddleware:
    def test_second_query_hits_cache(self, scenario):
        s2s = scenario.build_middleware(store=True)
        assert not s2s.query("SELECT product").store_hit
        second = s2s.query("SELECT product")
        assert second.store_hit and second.extraction is None
        assert len(s2s.query("SELECT product")) == 20

    def test_cached_answers_identical(self, scenario):
        cached = scenario.build_middleware(store=True)
        plain = scenario.build_middleware()
        query = 'SELECT product WHERE case = "stainless-steel"'
        cached.query(query)  # warm
        served = cached.query(query)
        assert served.store_hit
        assert sorted(map(key, served.entities)) == \
            sorted(map(key, plain.query(query).entities))

    def test_stale_after_source_change_until_invalidated(self, scenario):
        s2s = scenario.build_middleware(store=True)
        before = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        db_org = [o for o in scenario.organizations
                  if o.source_type == "database"][0]
        brand_column = db_org.native_fields.get("brand", "brand")
        db_org.database.execute(
            f"UPDATE products SET {brand_column} = 'Seiko'")
        stale = s2s.query('SELECT product WHERE brand = "Seiko"')
        assert stale.store_hit
        assert len(stale) == before  # the store hides the change
        removed = s2s.invalidate_cache(db_org.source_id)
        assert removed > 0
        fresh = s2s.query('SELECT product WHERE brand = "Seiko"')
        assert not fresh.store_hit
        assert len(fresh) > len(stale)

    def test_invalidate_without_cache_is_noop(self, scenario):
        s2s = scenario.build_middleware()
        assert s2s.store is None
        assert s2s.invalidate_cache() == 0


class TestParallelExtraction:
    def test_parallel_matches_serial(self, scenario):
        serial = scenario.build_middleware()
        parallel = scenario.build_middleware(concurrency="thread")
        key = lambda e: (e.value("brand"), e.value("model"), e.source_id)
        for query in ("SELECT product",
                      'SELECT product WHERE price < 300'):
            assert sorted(map(key, serial.query(query).entities)) == \
                sorted(map(key, parallel.query(query).entities))

    def test_parallel_wins_under_latency(self):
        scenario = B2BScenario(n_sources=6, n_products=12,
                               source_mix=("webpage",), web_latency=0.01)
        serial = scenario.build_middleware()
        parallel = scenario.build_middleware(concurrency="thread")
        serial_outcome = serial.extract_all()
        parallel_outcome = parallel.extract_all()
        assert parallel_outcome.total_records() == \
            serial_outcome.total_records()
        # 6 sources x 8 attributes x 10ms serial vs fanned out
        assert parallel_outcome.elapsed_seconds < \
            serial_outcome.elapsed_seconds

    def test_parallel_collects_failures(self, scenario):
        s2s = scenario.build_middleware(concurrency="thread")
        web_org = [o for o in scenario.organizations
                   if o.source_type == "webpage"][0]
        scenario.web.unpublish(web_org.url)
        result = s2s.query("SELECT product")
        assert len(result) == 15
        assert not result.errors.ok

    def test_parallel_strict_raises(self, scenario):
        from repro.errors import S2SError
        s2s = scenario.build_middleware(concurrency="thread",
                                        strict_extraction=True)
        web_org = [o for o in scenario.organizations
                   if o.source_type == "webpage"][0]
        scenario.web.unpublish(web_org.url)
        with pytest.raises(S2SError):
            s2s.query("SELECT product")

    def test_max_workers_respected(self, scenario):
        s2s = scenario.build_middleware(
            concurrency=ConcurrencyConfig.threads(max_workers=1))
        assert len(s2s.query("SELECT product")) == 20


class TestFanoutCapReporting:
    def many_source_world(self, concurrency):
        scenario = B2BScenario(n_sources=18, n_products=18, seed=7)
        metrics = MetricsRegistry()
        return scenario.build_middleware(concurrency=concurrency,
                                         metrics=metrics), metrics

    def test_adaptive_cap_logs_and_counts(self, caplog):
        s2s, metrics = self.many_source_world("thread")
        with caplog.at_level(logging.WARNING, logger="repro.core.extractor"):
            outcome = s2s.extract_all()
        assert outcome.total_records() > 0
        assert metrics.value("fanout_capped_total", sources="18") == 1
        assert "fan-out truncated" in caplog.text

    def test_unbounded_workers_never_cap(self, caplog):
        s2s, metrics = self.many_source_world(
            ConcurrencyConfig(mode="thread", max_workers=0))
        with caplog.at_level(logging.WARNING, logger="repro.core.extractor"):
            outcome = s2s.extract_all()
        assert outcome.total_records() > 0
        assert metrics.get("fanout_capped_total") is None
        assert "fan-out truncated" not in caplog.text
