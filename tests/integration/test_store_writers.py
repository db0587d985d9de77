"""One writer for the semantic store: every filler, one result.

The store is filled four ways — live write-through (``fold``),
``materialize``, ``refresh_store`` and durable ``ingest`` — and all four
end in :meth:`SemanticStore.commit`.  Whatever completes an extraction
must therefore leave the *same* store behind: entities, fingerprints,
stale flags, the error channel (source-less ``mapping:`` entries
included), ``store_status()`` and the graph's triples.  Where a source
fails, each filler keeps its own documented contract.

Also pinned here, because each was a place the four copies had drifted:

* fingerprints are taken *before* the read, so a write racing an
  extraction is re-extracted by the next refresh instead of being
  served as fresh forever;
* a healed source loses its old error entries on the next write.
"""

from __future__ import annotations

import random

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.config import RefreshPolicy, ResilienceConfig
from repro.core.instances.errors import ErrorEntry
from repro.core.query.parser import parse_s2sql
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.core.store import SemanticStore, SliceWrite
from repro.core.store.store import Materialization, SourceSlice
from repro.errors import S2SError
from repro.ids import AttributePath
from repro.ontology.builders import watch_domain_ontology
from repro.sources.flaky import FlakySource
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario
from tests.core.test_store import canon, make_entity

QUERY = "SELECT product"
FILLERS = ["write-through", "materialize", "materialize+refresh", "ingest"]


def fill(s2s, filler, tmp_path):
    if filler == "write-through":
        assert not s2s.query(QUERY).store_hit
    elif filler == "ingest":
        report = s2s.ingest(QUERY, journal_dir=str(tmp_path / "journal"),
                            fsync=False)
        assert not report.aborted and report.dead == 0
    else:
        s2s.materialize(QUERY)
        if filler == "materialize+refresh":
            s2s.refresh_store(force=True)


def stored(s2s):
    """Everything the four fillers must agree on."""
    mat, = s2s.store.materializations()
    status, = s2s.store_status()
    del status["age_seconds"]
    return {
        "slices": {source_id: (canon(slice_.entities), slice_.fingerprint,
                               slice_.stale)
                   for source_id, slice_ in sorted(mat.slices.items())},
        "errors": list(mat.errors),
        "status": status,
        "triples": set(s2s.store.graph),
    }


# ----------------------------------------------------------------------
# Worlds whose extraction completes
# ----------------------------------------------------------------------


def clean_world(seed):
    return B2BScenario(n_sources=4, n_products=12,
                       seed=seed).build_middleware(store=True)


def dirty_world(seed):
    """Two of five sources each hold two uncoercible values — per-source
    error entries that ingest commits in whatever order its workers
    finish."""
    scenario = B2BScenario(n_sources=5, n_products=15, seed=seed)
    for org in scenario.organizations:
        if org.source_type != "database":
            continue
        for product in org.products[:2]:
            org.database.execute(
                f"UPDATE products "
                f"SET {org.native_fields['water_resistance']} = NULL "
                f"WHERE {org.native_fields['model']} = '{product.model}'")
    return scenario.build_middleware(store=True)


def departed_world(seed):
    """The store still holds a slice (and an error entry) of a source
    that has since left the mapping; the materialization is expired, so
    a query goes live."""
    s2s = clean_world(seed)
    plan = s2s.query_handler.planner.plan(parse_s2sql(QUERY))
    mat = s2s.store.ensure(plan.class_name, list(plan.required_attributes))
    s2s.store.upsert(mat.key, "ghost_99",
                     [make_entity("g1", "Ghost", source_id="ghost_99")],
                     fingerprint="gone")
    mat.errors.append(ErrorEntry("generation", "ghost", source_id="ghost_99"))
    return s2s


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("world", [clean_world, dirty_world, departed_world])
def test_every_filler_leaves_the_same_store(world, seed, tmp_path):
    results = {}
    for filler in FILLERS:
        s2s = world(seed)
        fill(s2s, filler, tmp_path / filler)
        results[filler] = stored(s2s)
        served = s2s.query(QUERY)
        assert served.store_hit and not served.store_stale, filler
        assert served.errors.entries == results[filler]["errors"], filler
        mapped = s2s.manager.sources.ids()
        s2s.close()
    reference = results["materialize+refresh"]
    assert sorted(reference["slices"]) == sorted(mapped)
    assert all(fingerprint is not None and not stale
               for _canon, fingerprint, stale in reference["slices"].values())
    if world is dirty_world:
        assert [entry.source_id for entry in reference["errors"]] == [
            "database_0", "database_0", "database_4", "database_4"]
    for filler in FILLERS:
        for facet, expected in reference.items():
            assert results[filler][facet] == expected, (filler, facet)


# ----------------------------------------------------------------------
# A partially mapped world: source-less mapping errors, racing writes,
# healed sources
# ----------------------------------------------------------------------


class RacingSource(RelationalDataSource):
    """A relational source whose table is UPDATEd right after its second
    rule has been read — a write racing the extraction, once armed."""

    armed = False

    def execute_rule(self, rule):
        values = super().execute_rule(rule)
        if self.armed:
            self.reads = getattr(self, "reads", 0) + 1
            if self.reads == 2:
                self.armed = False
                self.database.execute(
                    "UPDATE watches SET brand = 'Orient' "
                    "WHERE brand = 'Seiko'")
        return values


def watch_world(*, price="199.00", **kwargs):
    """One relational source mapping two of the eight attributes
    ``SELECT product`` needs — six ``mapping:`` error entries."""
    s2s = S2SMiddleware(watch_domain_ontology(), store=True, **kwargs)
    db = Database("watchdb")
    db.executescript(f"""
    CREATE TABLE watches (brand TEXT, price TEXT);
    INSERT INTO watches (brand, price) VALUES
      ('Seiko', '{price}'), ('Casio', '15.50');
    """)
    source = RacingSource("DB_1", db)
    s2s.register_source(source)
    s2s.register_attribute(("product", "brand"),
                           ExtractionRule.sql("SELECT brand FROM watches"),
                           "DB_1")
    s2s.register_attribute(("product", "price"),
                           ExtractionRule.sql("SELECT price FROM watches"),
                           "DB_1")
    return s2s, source


def test_partially_mapped_world_keeps_its_mapping_errors(tmp_path):
    results = {}
    for filler in FILLERS:
        s2s, _source = watch_world()
        fill(s2s, filler, tmp_path / filler)
        results[filler] = stored(s2s)
        s2s.close()
    reference = results["materialize+refresh"]
    assert [(entry.phase, entry.source_id)
            for entry in reference["errors"]] == [("mapping", None)] * 6
    for filler in FILLERS:
        assert results[filler] == reference, filler


@pytest.mark.parametrize("filler", FILLERS)
def test_write_racing_an_extraction_is_refreshed_next(filler, tmp_path):
    """The fingerprint stored with a slice is the one taken before the
    read, so the racing UPDATE shows as a change to the next refresh —
    whichever filler did the reading."""
    s2s, source = watch_world()
    if filler == "materialize+refresh":  # the reference: already correct
        s2s.materialize(QUERY)
        source.armed = True
        s2s.refresh_store(force=True)
    else:
        source.armed = True
        fill(s2s, filler, tmp_path)
    assert not source.armed, "the race never fired"
    stale_read = s2s.query(QUERY)
    assert stale_read.store_hit
    assert sorted(e.value("brand") for e in stale_read.entities) == [
        "Casio", "Seiko"]

    result, = s2s.refresh_store()
    assert result.refreshed == ["DB_1"] and result.unchanged == []
    served = s2s.query(QUERY)
    assert served.store_hit
    assert sorted(e.value("brand") for e in served.entities) == [
        "Casio", "Orient"]
    assert s2s.refresh_store()[0].unchanged == ["DB_1"]
    s2s.close()


@pytest.mark.parametrize("path", ["ingest", "delta"])
def test_healed_source_loses_its_error_entries(path, tmp_path):
    s2s, source = watch_world(price="not-a-number")

    def write(run):
        if path == "ingest":
            report = s2s.ingest(QUERY, force=True, fsync=False,
                                journal_dir=str(tmp_path / f"journal{run}"))
            assert report.completed == 1
        elif run == 0:
            s2s.materialize(QUERY)
        else:
            assert s2s.refresh_store()[0].refreshed == ["DB_1"]

    def generation_errors():
        mat, = s2s.store.materializations()
        served = s2s.query(QUERY)
        assert served.store_hit
        assert served.errors.entries == mat.errors
        return [entry.message for entry in mat.errors
                if entry.phase == "generation"]

    write(0)
    assert generation_errors() == [
        "value 'not-a-number' is not a valid double for 'price'"]
    source.database.execute(
        "UPDATE watches SET price = '199.00' WHERE brand = 'Seiko'")
    write(1)
    assert generation_errors() == []
    mat, = s2s.store.materializations()
    assert len(mat.errors) == 6  # the mapping entries stay
    s2s.close()


# ----------------------------------------------------------------------
# A failing source: each filler's documented contract
# ----------------------------------------------------------------------


def failing_world(*, policy=True, healthy_first=False):
    """A 4-source world on a FakeClock whose ``database_0`` can be made
    to fail every call (``flaky.failure_rate = 1.0``)."""
    clock = FakeClock()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=50, cooldown_seconds=600.0),
        clock=clock)
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    s2s = scenario.build_middleware(store=policy, resilience=config)
    flaky = FlakySource(s2s.manager.sources.get("database_0"),
                        failure_rate=0.0 if healthy_first else 1.0,
                        clock=clock)
    s2s.source_repository.register(flaky, replace=True)
    return s2s, flaky


class TestFailingSourceContracts:
    def test_fold_stores_nothing(self):
        s2s, _flaky = failing_world()
        result = s2s.query(QUERY)
        assert result.degraded and not result.store_hit
        assert len(s2s.store) == 0 and len(s2s.store.graph) == 0
        s2s.close()

    def test_first_materialize_raises_and_leaves_nothing_behind(self):
        s2s, flaky = failing_world()
        with pytest.raises(S2SError, match=r"cannot materialize 'product': "
                           r"extraction was degraded \(\[database_0"):
            s2s.materialize(QUERY)
        assert len(s2s.store) == 0 and len(s2s.store.graph) == 0
        assert not s2s.query(QUERY).store_hit
        flaky.failure_rate = 0.0
        assert s2s.materialize(QUERY).refreshed == [
            "database_0", "textfile_3", "webpage_2", "xml_1"]
        s2s.close()

    def test_refresh_keeps_last_known_good_marked_stale(self):
        s2s, flaky = failing_world(healthy_first=True)
        s2s.materialize(QUERY)
        before = stored(s2s)
        flaky.failure_rate = 1.0
        result, = s2s.refresh_store(force=True)
        assert result.kept_stale == ["database_0"]
        assert result.removed == []
        after = stored(s2s)
        assert after["slices"]["database_0"] == (
            before["slices"]["database_0"][0],
            before["slices"]["database_0"][1], True)
        assert after["triples"] == before["triples"]
        served = s2s.query(QUERY)
        assert served.store_hit and served.store_stale
        s2s.close()

    def test_refresh_tombstones_when_the_policy_says_so(self):
        s2s, flaky = failing_world(
            policy=RefreshPolicy(keep_last_known_good=False),
            healthy_first=True)
        s2s.materialize(QUERY)
        flaky.failure_rate = 1.0
        result, = s2s.refresh_store(force=True)
        assert result.removed == ["database_0"]
        assert result.kept_stale == []
        mat, = s2s.store.materializations()
        assert sorted(mat.slices) == ["textfile_3", "webpage_2", "xml_1"]
        assert not any(triple.object.n3() == '"database_0"'
                       for triple in s2s.store.graph)
        s2s.close()

    def test_ingest_retries_then_dead_letters(self, tmp_path):
        s2s, flaky = failing_world()
        report = s2s.ingest(QUERY, journal_dir=str(tmp_path), fsync=False)
        assert report.completed == 3 and report.dead == 1
        assert flaky.attempts >= 2  # the retry budget was spent
        letter, = s2s.ingest_dead_letter(str(tmp_path))
        assert letter["job"]["source_id"] == "database_0"
        mat, = s2s.store.materializations()
        assert sorted(mat.slices) == ["textfile_3", "webpage_2", "xml_1"]
        # an incomplete run is never stamped fresh
        assert not s2s.store_status()[0]["fresh"]
        s2s.close()

    def test_ingest_keeps_stale_behind_an_open_breaker(self, tmp_path):
        s2s, _flaky = failing_world(healthy_first=True)
        s2s.ingest(QUERY, journal_dir=str(tmp_path / "first"), fsync=False)
        before = stored(s2s)
        breaker = s2s.manager.breakers.get("database_0")
        while breaker.allow():
            breaker.record_failure()
        report = s2s.ingest(QUERY, journal_dir=str(tmp_path / "second"),
                            force=True, fsync=False)
        assert report.kept_stale == 1 and report.dead == 0
        after = stored(s2s)
        assert after["status"]["stale_sources"] == ["database_0"]
        assert after["slices"]["database_0"][0] == \
            before["slices"]["database_0"][0]
        assert after["triples"] == before["triples"]
        s2s.close()


# ----------------------------------------------------------------------
# The reference-count invariant
# ----------------------------------------------------------------------


KEYS = [("product", frozenset({"product.brand"})),
        ("product", frozenset({"product.brand", "product.price"}))]
SOURCES = ["db", "xml", "web"]


def _materialization(key, slices):
    return Materialization(
        key[0], key[1], [AttributePath.parse(a) for a in sorted(key[1])],
        slices=slices)


def _entities(rng, source_id):
    # Identifiers are drawn from a small pool shared between keys and
    # sources, so triples really are co-owned.
    return [make_entity(f"w{rng.randrange(6)}",
                        rng.choice(["Seiko", "Casio"]),
                        source_id=source_id, record_index=index)
            for index in range(rng.randrange(4))]


@pytest.mark.parametrize("seed", range(12))
def test_graph_equals_a_store_rebuilt_from_the_surviving_slices(seed):
    rng = random.Random(seed)
    store = SemanticStore(
        policy=RefreshPolicy(keep_last_known_good=bool(seed % 2)))
    for _step in range(60):
        key = rng.choice(KEYS)
        action = rng.choice(["commit"] * 5 + ["tombstone", "tombstone",
                                              "adopt", "adopt", "bump"])
        if action == "commit":
            store.ensure(key[0], [AttributePath.parse(a)
                                  for a in sorted(key[1])])
            writes = []
            for source_id in rng.sample(SOURCES, rng.randrange(1, 4)):
                failed = rng.random() < 0.3
                entities = ([] if failed and rng.random() < 0.5
                            else _entities(rng, source_id))
                writes.append(SliceWrite(source_id, entities, "fp", failed))
            store.commit(key, writes, [])
        elif action == "tombstone":
            if store.materialization(key) is not None:
                store.tombstone(key, rng.choice(SOURCES))
        elif action == "adopt":
            store.adopt(_materialization(key, {
                source_id: SourceSlice(source_id, _entities(rng, source_id))
                for source_id in rng.sample(SOURCES, 2)}))
        else:
            store.bump_generation()

        rebuilt = SemanticStore()
        for mat in store.materializations():
            rebuilt.adopt(_materialization(mat.key, {
                source_id: SourceSlice(source_id,
                                       [e.clone() for e in slice_.entities])
                for source_id, slice_ in mat.slices.items()}))
        assert len(store.graph) == len(rebuilt.graph)
        assert set(store.graph) == set(rebuilt.graph)
        assert store._triple_refs == rebuilt._triple_refs
