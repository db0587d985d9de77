"""Semantic-store tests: serving, TTL/staleness, delta refresh, coherence.

All freshness-sensitive assertions run on a :class:`FakeClock` (the
store reads time through the middleware's resilience clock), so nothing
here sleeps for real and staleness transitions are deterministic.
"""

from __future__ import annotations

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.core.extractor.manager import ExtractionProblem
from repro.core.query.parser import parse_s2sql
from repro.config import RefreshPolicy, ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.codec import entities_from_wire, entities_to_wire
from repro.core.instances.errors import ErrorEntry
from repro.core.store import SemanticStore, SliceWrite, StoreRefresher
from repro.core.store.snapshot import fingerprint_sources
from repro.core.store.store import Materialization, SourceSlice
from repro.errors import S2SError
from repro.ids import AttributePath
from repro.obs import MetricsRegistry, Tracer
from repro.ontology.builders import watch_domain_ontology
from repro.ontology.model import Individual
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario

PIPELINE_STAGES = ["parse", "plan", "extract", "generate", "filter"]


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def canon(entities):
    """An order/dict-order independent fingerprint of a result set.

    Individual.values is rebuilt from graph triples on a warm load, so
    its insertion order may differ — compare sorted items, never reprs.
    """
    return sorted(
        (entity.primary.class_name, entity.source_id, entity.record_index,
         tuple(sorted((name, _freeze(value))
                      for name, value in entity.primary.values.items())),
         tuple(sorted(
             (satellite.class_name,
              tuple(sorted((name, _freeze(value))
                           for name, value in satellite.values.items())))
             for satellite in entity.satellites)))
        for entity in entities)


def store_world(*, store=True, n_sources=4, n_products=12, **kwargs):
    scenario = B2BScenario(n_sources=n_sources, n_products=n_products,
                           seed=7)
    registry = MetricsRegistry()
    s2s = scenario.build_middleware(metrics=registry, store=store, **kwargs)
    return scenario, s2s, registry


def clocked_world(policy):
    """A B2B world whose store + resilience share one FakeClock."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
    registry = MetricsRegistry()
    s2s = scenario.build_middleware(
        metrics=registry, store=policy,
        resilience=ResilienceConfig(clock=clock))
    return scenario, s2s, registry, clock


def breaker_world():
    """One healthy relational source behind an explicit breaker."""
    clock = FakeClock()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=1, base_delay=0.01, multiplier=2.0,
                          max_delay=1.0, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
        clock=clock)
    registry = MetricsRegistry()
    s2s = S2SMiddleware(watch_domain_ontology(), resilience=config,
                        metrics=registry, store=True)
    db = Database("watchdb")
    db.executescript("""
    CREATE TABLE watches (brand TEXT, price_cents INTEGER);
    INSERT INTO watches (brand, price_cents) VALUES
      ('Seiko', 19900), ('Casio', 1550);
    """)
    s2s.register_source(RelationalDataSource("DB_1", db))
    s2s.register_attribute(("product", "brand"),
                           ExtractionRule.sql("SELECT brand FROM watches"),
                           "DB_1")
    s2s.register_attribute(
        ("product", "price"),
        ExtractionRule.sql("SELECT price_cents FROM watches"), "DB_1")
    return s2s, db, registry, clock


def make_entity(identifier, brand, *, source_id="db", record_index=0):
    primary = Individual(identifier, "product", {"brand": brand})
    provider = Individual(f"{identifier}_prov", "provider",
                          {"country": "PL"})
    primary.link("hasProvider", provider)
    return AssembledEntity(primary, [provider], source_id, record_index, [])


def copied(entity):
    """A mutable deep copy of a (possibly frozen) entity."""
    duplicate, = entities_from_wire(*entities_to_wire([entity]))
    return duplicate


class TestStoreServing:
    def test_repeat_query_is_served_from_store(self):
        _scenario, s2s, registry = store_world()
        live = s2s.query("SELECT product")
        assert not live.store_hit
        served = s2s.query("SELECT product")
        assert served.store_hit and not served.store_stale
        assert served.extraction is None
        assert canon(served.entities) == canon(live.entities)
        assert registry.value("store_folds_total") == 1
        assert registry.value("store_hits_total") == 1

    def test_store_hit_honours_merge_key(self):
        _scenario, s2s, _registry = store_world()
        live = s2s.query("SELECT product", merge_key=["brand", "model"])
        served = s2s.query("SELECT product", merge_key=["brand", "model"])
        assert served.store_hit
        assert canon(served.entities) == canon(live.entities)

    def test_store_hit_honours_conditions(self):
        _scenario, s2s, _registry = store_world()
        live = s2s.query("SELECT product")
        brand = live.entities[0].value("brand")
        served = s2s.query(f'SELECT product WHERE brand = "{brand}"')
        # Same class + attribute set => same store key.
        assert served.store_hit
        assert served.entities
        assert all(e.value("brand") == brand for e in served.entities)

    def test_store_span_appears_in_hit_trace(self):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        tracer = Tracer()
        s2s = scenario.build_middleware(tracer=tracer, store=True)
        s2s.query("SELECT product")
        served = s2s.query("SELECT product")
        span = served.trace.find("store")
        assert span.attributes["store"] == "hit"
        assert span.attributes["entities"] == len(served.entities)

    def test_no_store_span_tree_is_unchanged(self):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        tracer = Tracer()
        s2s = scenario.build_middleware(tracer=tracer)
        result = s2s.query("SELECT product")
        stages = [child.name for child in result.trace.root.children]
        assert stages == PIPELINE_STAGES

    def test_batch_served_from_store(self):
        _scenario, s2s, _registry = store_world()
        queries = ["SELECT product", "SELECT product"]
        first = s2s.query_many(queries)
        second = s2s.query_many(queries)
        assert all(not r.store_hit for r in first)
        assert all(r.store_hit for r in second)
        for before, after in zip(first, second):
            assert canon(after.entities) == canon(before.entities)

    def test_partially_materialized_batch_falls_through_live(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        mixed = s2s.query_many(["SELECT product", "SELECT watch"])
        # All-or-nothing: one unmaterialized plan sends the batch live.
        assert all(not r.store_hit for r in mixed)
        again = s2s.query_many(["SELECT product", "SELECT watch"])
        assert all(r.store_hit for r in again)


class TestTtlStaleness:
    def test_expired_materialization_falls_back_to_live(self):
        _scenario, s2s, registry, clock = clocked_world(
            RefreshPolicy(ttl_seconds=60.0))
        s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        clock.advance(61.0)
        expired = s2s.query("SELECT product")
        assert not expired.store_hit
        assert registry.value("store_misses_total", reason="stale") == 1
        # The live fallback re-folded: fresh again.
        assert s2s.query("SELECT product").store_hit

    def test_refresh_in_flight_serves_stale_snapshot(self):
        _scenario, s2s, registry, clock = clocked_world(
            RefreshPolicy(ttl_seconds=60.0))
        s2s.query("SELECT product")
        clock.advance(61.0)
        key = s2s.store.materializations()[0].key
        s2s.store.begin_refresh(key)
        try:
            served = s2s.query("SELECT product")
            assert served.store_hit and served.store_stale
            assert registry.value("stale_served_total") == 1
        finally:
            s2s.store.end_refresh(key)

    def test_zero_ttl_never_serves(self):
        _scenario, s2s, _registry, _clock = clocked_world(
            RefreshPolicy(ttl_seconds=0.0))
        s2s.query("SELECT product")
        assert not s2s.query("SELECT product").store_hit


class TestBreakerLastKnownGood:
    def test_breaker_open_source_keeps_last_known_good(self):
        s2s, db, registry, _clock = breaker_world()
        live = s2s.query("SELECT product")
        assert {e.value("brand") for e in live.entities} == {"Seiko",
                                                             "Casio"}
        breaker = s2s.manager.breakers.get("DB_1")
        for _ in range(3):
            breaker.record_failure()
        assert "DB_1" in s2s.manager.breakers.open_sources()

        db.execute("UPDATE watches SET brand = 'Atlantis'")
        results = s2s.refresh_store()
        assert len(results) == 1
        assert results[0].kept_stale == ["DB_1"]
        assert results[0].extracted_sources == []
        assert registry.value("store_kept_stale_total") == 1

        served = s2s.query("SELECT product")
        assert served.store_hit and served.store_stale
        assert {e.value("brand") for e in served.entities} == {"Seiko",
                                                               "Casio"}

    def test_recovered_breaker_refreshes_the_stale_slice(self):
        s2s, db, _registry, clock = breaker_world()
        s2s.query("SELECT product")
        breaker = s2s.manager.breakers.get("DB_1")
        for _ in range(3):
            breaker.record_failure()
        db.execute("UPDATE watches SET brand = 'Atlantis'")
        s2s.refresh_store()

        clock.advance(61.0)  # cooldown passed -> half-open
        breaker.record_success()  # probe succeeded -> closed
        results = s2s.refresh_store()
        assert results[0].refreshed == ["DB_1"]
        assert results[0].extracted_sources == ["DB_1"]
        served = s2s.query("SELECT product")
        assert served.store_hit and not served.store_stale
        assert {e.value("brand") for e in served.entities} == {"Atlantis"}


class TestGenerationCoherence:
    def test_load_mapping_invalidates_the_store(self):
        scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        generation = s2s.store.generation
        assert len(s2s.store) == 1 and len(s2s.store.graph) > 0

        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(s2s.dump_mapping(),
                         lambda sid, info: scenario.connector(by_id[sid]))
        assert s2s.store.generation == generation + 1
        assert len(s2s.store) == 0 and len(s2s.store.graph) == 0

        relearned = s2s.query("SELECT product")
        assert not relearned.store_hit
        assert s2s.query("SELECT product").store_hit

    def test_register_attribute_expires_materializations(self):
        s2s, _db, _registry, _clock = breaker_world()
        s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        s2s.register_attribute(
            ("product", "brand"),
            ExtractionRule.sql("SELECT price_cents FROM watches"),
            "DB_1", replace=True)
        refreshed = s2s.query("SELECT product")
        assert not refreshed.store_hit
        # The re-registered rule's values are served, not the old ones.
        assert {e.value("brand")
                for e in refreshed.entities} != {"Seiko", "Casio"}

    def test_replacing_a_source_expires_its_materializations(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        other = B2BScenario(n_sources=4, n_products=12, seed=8)
        org = next(o for o in other.organizations
                   if o.source_id == "database_0")
        s2s.register_source(other.connector(org), replace=True)
        replaced = s2s.query("SELECT product")
        assert not replaced.store_hit
        _scenario, live, _registry = store_world(store=None)
        live.register_source(other.connector(org), replace=True)
        assert canon(replaced.entities) == canon(
            live.query("SELECT product").entities)

    def test_invalidate_cache_expires_source_materializations(self):
        _scenario, s2s, registry = store_world()
        s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        s2s.invalidate_cache("database_0")
        assert not s2s.query("SELECT product").store_hit
        assert registry.value("store_misses_total", reason="stale") == 1

    def test_invalidate_cache_counts_what_it_expired(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        assert s2s.invalidate_cache("database_0") == 1
        assert s2s.invalidate_cache("no_such_source") == 0
        _scenario, live, _registry = store_world(store=None)
        assert live.invalidate_cache() == 0


class TestDeltaRefresh:
    def test_materialize_primes_the_store_ahead_of_queries(self):
        _scenario, s2s, _registry = store_world()
        result = s2s.materialize("SELECT product")
        assert result.refreshed == ["database_0", "textfile_3",
                                    "webpage_2", "xml_1"]
        served = s2s.query("SELECT product")
        assert served.store_hit
        assert len(served.entities) == 12

    def test_unchanged_world_refresh_extracts_nothing(self):
        _scenario, s2s, _registry = store_world()
        s2s.materialize("SELECT product")
        result, = s2s.refresh_store()
        assert result.noop
        assert result.extracted_sources == []
        assert len(result.unchanged) == 4
        assert result.summary() == ("product: 0 refreshed, 4 unchanged, "
                                    "0 kept stale, 0 removed")

    def test_one_changed_source_refresh_extracts_only_it(self):
        scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
        tracer = Tracer()
        s2s = scenario.build_middleware(tracer=tracer, store=True)
        s2s.materialize("SELECT product")
        org = next(o for o in scenario.organizations
                   if o.source_id == "database_0")
        org.database.execute(
            "UPDATE products SET provider_country = 'Atlantis'")

        result, = s2s.refresh_store()
        assert result.refreshed == ["database_0"]
        assert result.extracted_sources == ["database_0"]
        assert sorted(result.unchanged) == ["textfile_3", "webpage_2",
                                            "xml_1"]
        # The span tree proves it: the diff stage saw all four sources
        # but exactly one verdict was "changed", and the extraction
        # fan-out visited only that source.
        diff = result.trace.find("diff")
        verdicts = {span.attributes["source"]: span.attributes["verdict"]
                    for span in diff.find_all("source")}
        assert verdicts["database_0"] == "changed"
        assert sorted(v for v in verdicts.values()) == [
            "changed", "unchanged", "unchanged", "unchanged"]
        extract = result.trace.find("extract")
        assert extract.attributes["sources"] == 1
        visited = {span.attributes["source"]
                   for span in extract.find_all("source")}
        assert visited == {"database_0"}

        served = s2s.query("SELECT product")
        assert served.store_hit
        countries = {e.value("country") for e in served.entities
                     if e.source_id == "database_0"}
        assert countries == {"Atlantis"}

    def test_refreshed_store_matches_live_extraction(self):
        scenario, s2s, _registry = store_world()
        s2s.materialize("SELECT product")
        org = next(o for o in scenario.organizations
                   if o.source_id == "database_0")
        org.database.execute(
            "UPDATE products SET provider_country = 'Atlantis'")
        s2s.refresh_store()
        served = s2s.query("SELECT product")
        assert served.store_hit
        live = scenario.build_middleware().query("SELECT product")
        assert canon(served.entities) == canon(live.entities)
        again, = s2s.refresh_store()  # nothing changed since
        assert again.noop
        assert canon(s2s.query("SELECT product").entities) == canon(
            live.entities)

    def test_force_refresh_reextracts_every_source(self):
        _scenario, s2s, _registry = store_world()
        s2s.materialize("SELECT product")
        result, = s2s.refresh_store(force=True)
        assert result.refreshed == ["database_0", "textfile_3",
                                    "webpage_2", "xml_1"]
        assert result.unchanged == []

    def test_source_gone_from_mapping_is_tombstoned(self):
        _scenario, s2s, _registry = store_world()
        s2s.materialize("SELECT product")
        key = s2s.store.materializations()[0].key
        s2s.store.commit(key, [SliceWrite(
            "ghost_99", [make_entity("g1", "Ghost", source_id="ghost_99")])],
            None)
        result, = s2s.refresh_store()
        assert result.removed == ["ghost_99"]
        assert "ghost_99" not in s2s.store.materializations()[0].slices

    def test_refresh_metrics_are_recorded(self):
        _scenario, s2s, registry = store_world()
        s2s.materialize("SELECT product")
        s2s.refresh_store()
        assert registry.value("store_refreshes_total") == 2  # incl. materialize
        rendered = registry.render_text()
        assert "store_refresh_seconds" in rendered


class TestSparql:
    def test_sparql_selects_provenance_from_the_store_graph(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        result = s2s.sparql("""
            PREFIX store: <http://example.org/s2s/store#>
            SELECT ?entity ?source WHERE { ?entity store:source ?source }
        """)
        mat = s2s.store.materializations()[0]
        assert len(result.rows) == mat.entity_count()
        sources = {row[1].lexical for row in result.rows}
        assert sources == {"database_0", "textfile_3", "webpage_2", "xml_1"}

    def test_sparql_ask_on_store_graph(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        assert s2s.sparql(
            "PREFIX store: <http://example.org/s2s/store#> "
            "ASK { ?s store:entityClass ?c }") is True

    def test_sparql_without_store_raises_cleanly(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware()
        with pytest.raises(S2SError, match="no semantic store configured"):
            s2s.sparql("ASK { ?s ?p ?o }")
        with pytest.raises(S2SError, match="no semantic store configured"):
            s2s.store_status()

    def test_store_status_reports_freshness(self):
        _scenario, s2s, _registry = store_world()
        s2s.query("SELECT product")
        row, = s2s.store_status()
        assert row["class"] == "product"
        assert row["entities"] == 12
        assert row["fresh"] is True
        assert row["sources"] == ["database_0", "textfile_3", "webpage_2",
                                  "xml_1"]


class TestStoreUnit:
    def _store_with(self, entities, *, key=("product",
                                           frozenset({"product.brand"}))):
        store = SemanticStore()
        by_source = {}
        for entity in entities:
            by_source.setdefault(entity.source_id, []).append(entity)
        store.adopt(Materialization(
            key[0], key[1], [AttributePath.parse(a) for a in sorted(key[1])],
            slices={source_id: SourceSlice(source_id, stored)
                    for source_id, stored in by_source.items()}))
        return store, key

    def test_a_stored_entity_is_read_only(self):
        entity = make_entity("w1", "Seiko")
        store, key = self._store_with([entity])
        stored, = store.materializations()[0].slices["db"].entities
        assert stored is entity  # shared, not copied
        provider = entity.satellites[0]
        for mutate in (lambda: entity.primary.set("brand", "Mutated"),
                       lambda: entity.primary.link("hasProvider", provider),
                       lambda: entity.primary.links["hasProvider"].append(
                           provider),
                       lambda: provider.values.update(country="XX"),
                       lambda: entity.satellites.append(provider),
                       lambda: entity.coercion_errors.append("x")):
            with pytest.raises((TypeError, AttributeError)):
                mutate()
        assert entity.primary.links["hasProvider"] == (provider,)
        assert entity.freeze() is entity  # again: nothing changes
        mutable = copied(entity)
        mutable.primary.set("brand", "Mutated")
        assert mutable.primary.links["hasProvider"] == [mutable.satellites[0]]
        assert entity.value("brand") == "Seiko"
        store.commit(key, [SliceWrite("db", [entity, copied(entity)])], None)
        assert len(store.materializations()[0].slices["db"].entities) == 2

    def test_commit_replaces_the_slice(self):
        store, key = self._store_with([make_entity("w1", "Seiko"),
                                       make_entity("w2", "Casio",
                                                   record_index=1)])
        assert store.commit(key, [SliceWrite(
            "db", [make_entity("w9", "Omega")])], None) == {"db": "refreshed"}
        slice_ = store.materializations()[0].slices["db"]
        assert [e.primary.values["brand"]
                for e in slice_.entities] == ["Omega"]

    def test_tombstone_removes_entities_triples_and_errors(self):
        store, key = self._store_with([
            make_entity("w1", "Seiko"),
            make_entity("x1", "Casio", source_id="xml")])
        mat = store.materializations()[0]
        mat.errors.append(ErrorEntry("extraction", "boom", source_id="db"))
        mat.errors.append(ErrorEntry("extraction", "keep", source_id="xml"))
        before = len(store.graph)
        assert store.tombstone(key, "db") == 1
        assert "db" not in mat.slices
        assert [entry.source_id for entry in mat.errors] == ["xml"]
        assert 0 < len(store.graph) < before
        assert store.tombstone(key, "db") == 0

    def test_shared_triples_are_reference_counted(self):
        # The same identifier materialized under two keys: releasing one
        # materialization must not strip the other's triples.
        store, _key = self._store_with([make_entity("w1", "Seiko")])
        other = ("product", frozenset({"product.brand", "product.price"}))
        store.adopt(Materialization(
            other[0], other[1],
            [AttributePath.parse(a) for a in sorted(other[1])],
            slices={"db": SourceSlice("db",
                                      [make_entity("w1", "Seiko")])}))
        populated = len(store.graph)
        store.tombstone(other, "db")
        assert len(store.graph) == populated  # still owned by the first
        assert store.tombstone(("product", frozenset({"product.brand"})),
                               "db") == 1
        assert len(store.graph) == 0

    def test_replace_errors_targets_only_refreshed_sources(self):
        store, key = self._store_with([make_entity("w1", "Seiko")])
        mat = store.materializations()[0]
        mat.errors = [ErrorEntry("extraction", "old-db", source_id="db"),
                      ErrorEntry("extraction", "old-xml", source_id="xml"),
                      ErrorEntry("generation", "old-global")]
        store.commit(
            key, [SliceWrite("db", [make_entity("w1", "Seiko")])],
            [ErrorEntry("extraction", "new-db", source_id="db"),
             ErrorEntry("extraction", "new-xml", source_id="xml"),
             ErrorEntry("generation", "new-global")])
        assert [(e.source_id, e.message) for e in mat.errors] == [
            (None, "new-global"), ("db", "new-db"), ("xml", "old-xml")]

    def test_a_commit_with_no_generation_leaves_the_errors(self):
        store, key = self._store_with([make_entity("w1", "Seiko")])
        mat = store.materializations()[0]
        mat.errors = [ErrorEntry("mapping", "unmapped"),
                      ErrorEntry("extraction", "old-db", source_id="db")]
        assert store.commit(key, [SliceWrite("db", failed=True),
                                  SliceWrite("xml", failed=True)],
                            None) == {"db": "kept_stale", "xml": "removed"}
        assert mat.slices["db"].stale
        assert [(e.source_id, e.message) for e in mat.errors] == [
            (None, "unmapped"), ("db", "old-db")]

    def test_mark_stale_counts_and_scopes(self):
        store, _key = self._store_with([make_entity("w1", "Seiko")])
        assert store.mark_stale("nope") == 0
        assert store.mark_stale("db") == 1
        assert store.mark_stale() == 1

    def test_export_rejects_unknown_format(self):
        store = SemanticStore()
        with pytest.raises(S2SError, match="unknown store export format"):
            store.export("json-ld")

    def test_fold_skips_degraded_outcomes(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(store=True)
        plan = s2s.query_handler.planner.plan(parse_s2sql("SELECT product"))
        fingerprints = fingerprint_sources(s2s.manager.sources,
                                           ["database_0", "xml_1"])
        outcome = s2s.manager.extract(list(plan.required_attributes))
        generation = s2s.query_handler.generator.generate(outcome, "product")
        outcome.problems.append(
            ExtractionProblem("database_0", "product.brand", "boom"))
        stored = s2s.store.fold(plan, outcome, generation, fingerprints)
        assert stored == 0
        assert len(s2s.store) == 0


class TestRefreshPolicyAndRefresher:
    def test_policy_validates_ttl(self):
        with pytest.raises(ValueError):
            RefreshPolicy(ttl_seconds=-1.0)
        assert not RefreshPolicy().is_stale(1e9)
        assert RefreshPolicy(ttl_seconds=10.0).is_stale(10.0)
        assert not RefreshPolicy(ttl_seconds=10.0).is_stale(9.9)

    def test_refresher_tick_runs_a_cycle(self):
        calls = []
        refresher = StoreRefresher(lambda: calls.append(1) or ["ok"],
                                   interval_seconds=30.0, clock=FakeClock())
        try:
            assert refresher.tick() == ["ok"]
            assert refresher.cycles == 1
            assert refresher.last_results == ["ok"]
            assert refresher.last_error is None
        finally:
            refresher.close()

    def test_refresher_records_failures_without_raising(self):
        def explode():
            raise S2SError("refresh failed")
        with StoreRefresher(explode, interval_seconds=30.0,
                            clock=FakeClock()) as refresher:
            assert refresher.tick() == []
            assert refresher.cycles == 0
            assert "refresh failed" in refresher.last_error

    def test_refresher_validates_interval(self):
        with pytest.raises(ValueError):
            StoreRefresher(lambda: [], interval_seconds=0.0)

    def test_middleware_store_refresher_drives_refresh_store(self):
        _scenario, s2s, _registry = store_world()
        s2s.materialize("SELECT product")
        with s2s.store_refresher(interval_seconds=300.0) as refresher:
            results = refresher.tick()
        assert len(results) == 1
        assert results[0].class_name == "product"

    def test_store_refresher_requires_a_store(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware()
        with pytest.raises(S2SError, match="no semantic store configured"):
            s2s.store_refresher()
