"""Tests for parallel extraction and the fragment cache (E1 ablations)."""

import logging

import pytest

from repro.core.extractor.cache import FragmentCache
from repro.config import ConcurrencyConfig
from repro.core.mapping.attributes import MappingEntry
from repro.core.mapping.rules import ExtractionRule
from repro.ids import AttributePath
from repro.obs import MetricsRegistry
from repro.workloads import B2BScenario


def make_entry(code="SELECT brand FROM products", source="database_0",
               transform=None):
    return MappingEntry(AttributePath.parse("thing.product.brand"),
                        ExtractionRule("sql", code, transform=transform),
                        source)


class TestFragmentCache:
    def test_miss_then_hit(self):
        cache = FragmentCache()
        entry = make_entry()
        assert cache.get(entry) is None
        from repro.core.extractor.records import RawFragment
        cache.put(entry, RawFragment(entry.attribute, entry.source_id,
                                     ["Seiko"]))
        fragment = cache.get(entry)
        assert fragment is not None and fragment.values == ["Seiko"]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_includes_rule_code(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        cache.put(entry, RawFragment(entry.attribute, entry.source_id, ["x"]))
        other = make_entry(code="SELECT brand_v2 FROM products")
        assert cache.get(other) is None

    def test_key_includes_transform(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        cache.put(entry, RawFragment(entry.attribute, entry.source_id, ["x"]))
        assert cache.get(make_entry(transform="upper")) is None

    def test_cached_values_isolated_from_mutation(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        cache.put(entry, RawFragment(entry.attribute, entry.source_id, ["x"]))
        first = cache.get(entry)
        first.values.append("mutated")
        second = cache.get(entry)
        assert second.values == ["x"]

    def test_invalidate_by_source(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        a = make_entry(source="A")
        b = make_entry(source="B")
        cache.put(a, RawFragment(a.attribute, "A", ["1"]))
        cache.put(b, RawFragment(b.attribute, "B", ["2"]))
        assert cache.invalidate("A") == 1
        assert cache.get(a) is None
        assert cache.get(b) is not None

    def test_invalidate_all(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        cache.put(entry, RawFragment(entry.attribute, entry.source_id, ["x"]))
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_capacity_bound(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache(max_entries=2)
        for index in range(4):
            entry = make_entry(code=f"SELECT c{index} FROM products")
            cache.put(entry, RawFragment(entry.attribute, entry.source_id,
                                         []))
        assert len(cache) <= 2

    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            FragmentCache(max_entries=0)


class TestGenerationCoherence:
    """Generation tags: mapping reloads kill in-flight stale write-backs.

    Regression for a latent staleness race: an extraction that started
    *before* ``load_mapping`` used to be able to ``put`` its (old-
    mapping) fragment back *after* the reload's invalidate, resurrecting
    stale data into a supposedly fresh cache."""

    def test_bump_clears_and_advances(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        cache.put(entry, RawFragment(entry.attribute, entry.source_id,
                                     ["x"]))
        assert cache.generation == 0
        assert cache.bump_generation() == 1
        assert cache.generation == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_stale_put_discarded_after_bump(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        observed = cache.generation  # a scan starts here...
        cache.bump_generation()      # ...mapping reloads mid-scan...
        accepted = cache.put(
            entry, RawFragment(entry.attribute, entry.source_id,
                               ["STALE"]),
            generation=observed)     # ...its write-back must die.
        assert accepted is False
        assert cache.get(entry) is None
        assert cache.stats.stale_discards == 1

    def test_current_generation_put_accepted(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        cache.bump_generation()
        entry = make_entry()
        assert cache.put(entry,
                         RawFragment(entry.attribute, entry.source_id,
                                     ["fresh"]),
                         generation=cache.generation) is True
        assert cache.get(entry).values == ["fresh"]

    def test_acquire_release_single_thread_protocol(self):
        from repro.core.extractor.records import RawFragment
        cache = FragmentCache()
        entry = make_entry()
        fragment, leading = cache.acquire(entry)
        assert fragment is None and leading is True
        cache.put(entry, RawFragment(entry.attribute, entry.source_id,
                                     ["x"]), generation=cache.generation)
        cache.release(entry)
        cache.release(entry)  # idempotent
        fragment, leading = cache.acquire(entry)
        assert fragment.values == ["x"] and leading is False
        assert cache.stats.flights == 1

    def test_reload_survives_on_same_cache_instance(self, scenario):
        """load_mapping bumps the generation instead of swapping the
        cache object, so in-flight writers' stamps stay comparable."""
        s2s = scenario.build_middleware(cache_extractions=True)
        cache = s2s.cache
        s2s.query("SELECT product")  # warm
        assert len(cache) > 0
        before = cache.generation
        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(s2s.dump_mapping(),
                         lambda sid, info: scenario.connector(by_id[sid]))
        assert s2s.cache is cache
        assert cache.generation == before + 1
        assert len(cache) == 0

    def test_remapped_attribute_reextracted_after_reload(self, scenario):
        """The end-to-end regression: a fragment stamped before the
        reload cannot serve queries after it — the attribute is
        re-extracted from the live source."""
        s2s = scenario.build_middleware(cache_extractions=True)
        cache = s2s.cache
        result = s2s.query('SELECT product WHERE brand != "zzz"')
        assert len(result) > 0
        # An extraction that started before the reload holds this stamp.
        observed = cache.generation
        entry = s2s.attribute_repository.entries_for(
            "thing.product.brand")[0]

        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(s2s.dump_mapping(),
                         lambda sid, info: scenario.connector(by_id[sid]))

        # The pre-reload writer finishes late: its stale value must die.
        from repro.core.extractor.records import RawFragment
        assert cache.put(entry,
                         RawFragment(entry.attribute, entry.source_id,
                                     ["STALE-VALUE"]),
                         generation=observed) is False
        fresh = s2s.query('SELECT product WHERE brand != "zzz"')
        values = {e.value("brand") for e in fresh.entities}
        assert "STALE-VALUE" not in values
        assert len(fresh) == len(result)
        assert cache.stats.stale_discards == 1


class TestCachedMiddleware:
    def test_second_query_hits_cache(self, scenario):
        s2s = scenario.build_middleware(cache_extractions=True)
        s2s.query("SELECT product")
        assert s2s.cache.stats.hits == 0
        s2s.query("SELECT product")
        assert s2s.cache.stats.hits > 0
        assert len(s2s.query("SELECT product")) == 20

    def test_cached_answers_identical(self, scenario):
        cached = scenario.build_middleware(cache_extractions=True)
        plain = scenario.build_middleware()
        query = 'SELECT product WHERE case = "stainless-steel"'
        cached.query(query)  # warm
        key = lambda e: (e.value("brand"), e.value("model"))
        assert sorted(map(key, cached.query(query).entities)) == \
            sorted(map(key, plain.query(query).entities))

    def test_stale_after_source_change_until_invalidated(self, scenario):
        s2s = scenario.build_middleware(cache_extractions=True)
        before = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        db_org = [o for o in scenario.organizations
                  if o.source_type == "database"][0]
        brand_column = db_org.native_fields.get("brand", "brand")
        db_org.database.execute(
            f"UPDATE products SET {brand_column} = 'Seiko'")
        stale = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        assert stale == before  # cache hides the change
        removed = s2s.invalidate_cache(db_org.source_id)
        assert removed > 0
        fresh = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        assert fresh >= stale

    def test_replace_registration_invalidates(self, scenario):
        s2s = scenario.build_middleware(cache_extractions=True)
        s2s.query("SELECT product")  # warm
        events = scenario.drift(fraction=0.25)
        scenario.repair_mapping(s2s, events)  # registers with replace=True
        result = s2s.query("SELECT product")
        # repaired source answers with fresh rules, not stale cache
        assert all(e.value("brand") is not None for e in result.entities
                   if e.source_id == events[0].source_id)

    def test_invalidate_without_cache_is_noop(self, scenario):
        s2s = scenario.build_middleware()
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
