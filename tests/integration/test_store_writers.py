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

And the store's two faces.  Its RDF view (``store.graph``, built from
the slices on demand) is checked after every commit of two seeded
schedules against a frozen copy of the reference-counted graph the
store used to keep (``_frozen_store_graph.py``): triple sets, every
pattern shape, a SPARQL corpus and both export formats.  A served query
shares the stored entities, read-only: it answers what copying every
stored entity and then filtering answered, and no edit of a stored
entity — served, warm-loaded or committed by ingest — gets through.
Readers outside the store lock — served queries and SPARQL — see one
whole version of what writers swap.  The seeded tests take
``S2S_DIFF_SEED`` (CI runs a second value).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
import threading
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.instances import InstanceGenerator
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.errors import ErrorEntry, ErrorReport
from repro.core.mapping.rules import RULE_LANGUAGES
from repro.core.query.parser import parse_s2sql
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.core.store import SemanticStore, SliceWrite
from repro.core.store.store import Materialization, SourceSlice
from repro.errors import S2SError
from repro.ids import AttributePath
from repro.ontology.builders import watch_domain_ontology
from repro.ontology.model import Individual
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.sparql import execute_sparql
from repro.rdf.terms import IRI, Literal
from repro.rdf.turtle import parse_turtle
from repro.sources.flaky import FlakySource
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario
from tests.core.answer_oracle import oracle_matches
from tests.core.generation_oracle import snapshot
from tests.core.test_answer_differential import (MERGE_KEYS,
                                                 build_middleware, capture,
                                                 worlds)
from tests.core.test_store import canon, copied, make_entity
from tests.integration._frozen_store_graph import ModelGraph

SEED = int(os.environ.get("S2S_DIFF_SEED", "25"))

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
    s2s.store.commit(mat.key, [SliceWrite(
        "ghost_99", [make_entity("g1", "Ghost", source_id="ghost_99")],
        fingerprint="gone")], None)
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


def failing_world(*, healthy_first=False):
    """A 4-source world on a FakeClock whose ``database_0`` can be made
    to fail every call (``flaky.failure_rate = 1.0``)."""
    clock = FakeClock()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=50, cooldown_seconds=600.0),
        clock=clock)
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    s2s = scenario.build_middleware(store=True, resilience=config)
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
# The RDF view against the frozen model graph
# ----------------------------------------------------------------------


KEYS = [("product", frozenset({"product.brand"})),
        ("product", frozenset({"product.brand", "product.price"}))]
SOURCES = ["db", "xml", "web"]

#: SPARQL the view must answer as the model graph does: the ledger's
#: provenance query, the store tests' queries and those of
#: ``tests/rdf/test_sparql.py`` (``ex:`` bound to the store's namespace,
#: ``watch`` / ``name`` read as the schedules' ``product`` / ``country``).
#: Left out: LIMIT / OFFSET and an OPTIONAL that binds a value, which
#: depend on an iteration order neither side promises.
SPARQL_CORPUS = [
    "PREFIX store: <http://example.org/s2s/store#>\n"
    "PREFIX ex: <http://example.org/s2s/ontology#>\n" + text for text in (
        "SELECT ?s ?src WHERE { ?s store:source ?src }",
        "ASK { ?s store:entityClass ?c }",
        "SELECT ?s ?i ?c WHERE { ?s store:recordIndex ?i . "
        "?s store:entityClass ?c }",
        "SELECT ?w WHERE { ?w a ex:product . }",
        "SELECT ?brand ?name WHERE { ?w a ex:product . ?w ex:brand ?brand ."
        " ?w ex:hasProvider ?p . ?p ex:country ?name . } ORDER BY ?brand",
        'SELECT ?w WHERE { ?w ex:brand "Seiko" . }',
        "SELECT ?w WHERE { ?w ex:price ?p . FILTER (?p > 100) }",
        "SELECT ?w WHERE { ?w ex:brand ?b . ?w ex:price ?p . "
        'FILTER (?b = "Seiko" && ?p < 100) }',
        "SELECT ?w WHERE { ?w ex:price ?p . "
        "FILTER (?p < 20 || !(?p < 150)) } ORDER BY ?w",
        'SELECT ?w WHERE { ?w ex:brand ?b . FILTER (REGEX(?b, "^se", "i")) }',
        "SELECT DISTINCT ?brand WHERE { ?w ex:brand ?brand . } "
        "ORDER BY ?brand",
        "SELECT ?w ?p WHERE { ?w ex:price ?p . } ORDER BY DESC(?p)",
        "SELECT ?w WHERE { ?w a ex:product . "
        "OPTIONAL { ?w ex:hasProvider ?p . } FILTER (!BOUND(?p)) }",
        "SELECT * WHERE { ?w ex:country ?n . }",
        'ASK { ?w ex:brand "Seiko" . }',
    )]

#: terms no stored triple holds, one per position
ABSENT = (IRI("http://example.org/s2s/ontology#absent"),
          IRI("http://example.org/s2s/ontology#absent"), Literal("absent"))


def sparql_answer(graph, query):
    answer = execute_sparql(graph, query)
    return answer if isinstance(answer, bool) else Counter(answer.rows)


def check_view(store, model, rng):
    """The store's view against the model graph after the same swaps:
    one triple set, each triple once; the same matches for every
    bound/unbound pattern shape over sampled terms; the same SPARQL
    answers; exports that parse back to the set."""
    model.sync(store)
    expected = set(model.graph)
    view = store.graph
    listed = list(view)
    assert len(listed) == len(view) == len(expected)
    assert set(listed) == expected
    stored = sorted(expected, key=lambda triple: triple.n3())
    for bound in itertools.product((False, True), repeat=3):
        for _draw in range(3):
            drawn = [tuple(rng.choice(stored))
                     if stored and rng.random() < 0.9 else ABSENT
                     for _ in range(3)]
            # mostly one triple's terms, sometimes a mix of several
            pattern = [(drawn[0] if rng.random() < 0.7
                        else rng.choice(drawn))[position]
                       if bound[position] else None
                       for position in range(3)]
            found = list(view.triples(*pattern))
            assert len(found) == len(set(found)), pattern
            assert set(found) == set(model.graph.triples(*pattern)), pattern
    for query in SPARQL_CORPUS:
        assert sparql_answer(view, query) == sparql_answer(model.graph,
                                                           query), query
    assert set(parse_turtle(store.export("turtle"))) == expected
    assert set(parse_ntriples(store.export("ntriples"))) == expected


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
    probe = random.Random(f"store-view:{SEED}:{seed}")
    store = SemanticStore()
    model = ModelGraph()
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

        check_view(store, model, probe)
        assert set(store.graph) == set(rebuilt(store).graph)


# ----------------------------------------------------------------------
# Diffed commits: a seeded schedule against a from-scratch rebuild
# ----------------------------------------------------------------------

#: a ring of values, each next to one Python may call equal but whose
#: literal differs — 1 / 1.0 / True / "1", list and scalar, 0.0 / -0.0,
#: two NaNs (not even equal to themselves), date / datetime, one instant
#: in two zones; a flip moves a value one step along it
FLIPS = [1, 1.0, True, "1", [1], [1, 1.0], ["1"], 0.0, -0.0, float("nan"),
         float("nan"), date(2006, 7, 4), datetime(2006, 7, 4),
         datetime(2006, 7, 4, 12, tzinfo=timezone.utc),
         datetime(2006, 7, 4, 14, tzinfo=timezone(timedelta(hours=2))),
         "Seiko"]


def drawn_entity(rng, source_id, record_index):
    primary = Individual(f"w{rng.randrange(5)}", "product",
                         {"brand": rng.choice(FLIPS)})
    if rng.random() < 0.5:
        primary.values["price"] = rng.choice(FLIPS)
    provider = Individual(f"p{rng.randrange(3)}", "provider",
                          {"country": rng.choice(["PL", "CH"])})
    primary.link("hasProvider", provider)
    return AssembledEntity(primary, [provider], source_id, record_index, [])


def value_kind(value) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, datetime) and value.tzinfo is not None:
        return f"datetime{value.utcoffset()}"
    return type(value).__name__


def changed(rng, entity, drawn):
    """A copy of ``entity`` with one thing about it changed."""
    entity = copied(entity)
    primary, provider = entity.primary, entity.satellites[0]
    change = rng.choice(["flip", "flip", "flip", "list", "record", "relink",
                         "link", "satellite", "attribute"])
    drawn.add(f"change:{change}")
    if change == "flip":
        old = primary.values["brand"]
        at = next((index for index, value in enumerate(FLIPS)
                   if type(value) is type(old) and repr(value) == repr(old)),
                  0)
        new = FLIPS[(at + rng.choice([-1, 1])) % len(FLIPS)]
        primary.values["brand"] = new
        drawn.add(f"flip:{value_kind(old)}->{value_kind(new)}")
    elif change == "list":
        old = primary.values["brand"]
        primary.values["brand"] = (old[0] if isinstance(old, list) and old
                                   else [old])
    elif change == "record":
        entity.record_index += rng.randrange(1, 3)
    elif change == "relink":
        provider.identifier = f"p{(int(provider.identifier[1:]) + 1) % 3}"
    elif change == "link":  # the link stated once more, or once less
        targets = primary.links["hasProvider"]
        targets[1:] = [] if len(targets) > 1 else [provider]
    elif change == "satellite":
        provider.values["country"] = ("DE" if provider.values["country"]
                                      != "DE" else "PL")
    elif "price" in primary.values:
        del primary.values["price"]
    else:
        primary.values["price"] = rng.choice(FLIPS)
    return entity


def next_extraction(rng, previous, source_id, drawn):
    """What the next extraction of a source returns: each stored record
    unchanged, changed, removed or duplicated, new ones added, the order
    sometimes shuffled."""
    entities = []
    for entity in previous:
        roll = rng.random()
        if roll < 0.15:
            drawn.add("removed")
            continue
        if roll < 0.5:
            drawn.add("changed")
            entity = changed(rng, entity, drawn)
        else:
            drawn.add("unchanged")
            entity = copied(entity)
        entities.append(entity)
        if rng.random() < 0.1:
            drawn.add("duplicated")
            entities.append(copied(entity))
    for _ in range(rng.randrange(3)):
        drawn.add("added")
        entities.append(drawn_entity(rng, source_id, rng.randrange(8)))
    if len(entities) > 1 and rng.random() < 0.4:
        drawn.add("reordered")
        rng.shuffle(entities)
    return entities


def rebuilt(store):
    """The store a from-scratch build of the surviving slices makes."""
    fresh = SemanticStore()
    for mat in store.materializations():
        fresh.adopt(_materialization(mat.key, {
            source_id: SourceSlice(source_id,
                                   [copied(e) for e in slice_.entities])
            for source_id, slice_ in mat.slices.items()}))
    return fresh


def test_a_diffed_commit_leaves_what_a_rebuild_would():
    """The commit schedule the store's content-key diff was written
    against, now checked against the frozen diffing writer itself."""
    drawn: set[str] = set()
    for index in range(8):
        rng = random.Random(f"store-commits:{SEED}:{index}")
        probe = random.Random(f"store-view:{SEED}:{index}")
        store = SemanticStore()
        model = ModelGraph()
        for _step in range(80):
            key = rng.choice(KEYS)
            source_id = rng.choice(SOURCES)
            mat = store.ensure(key[0], [AttributePath.parse(a)
                                        for a in sorted(key[1])])
            if rng.random() < 0.1:
                drawn.add("tombstoned")
                store.tombstone(key, source_id)
                check_view(store, model, probe)
            else:
                stored = mat.slices.get(source_id)
                entities = next_extraction(
                    rng, stored.entities if stored is not None else [],
                    source_id, drawn)
                store.commit(key, [SliceWrite(source_id, entities, "fp")],
                             [])
                check_view(store, model, probe)
                # the same extraction again, in another order, leaves
                # the triple set as it was, in the model graph too
                triples = set(store.graph)
                again = [copied(entity) for entity in entities]
                rng.shuffle(again)
                store.commit(key, [SliceWrite(source_id, again, "fp")], [])
                model.sync(store)
                assert set(store.graph) == set(model.graph) == triples
            assert set(store.graph) == set(rebuilt(store).graph)
    assert drawn >= {
        "unchanged", "changed", "added", "removed", "duplicated",
        "reordered", "tombstoned", "change:list", "change:record",
        "change:relink", "change:link", "change:satellite",
        "change:attribute",
        # every pair of values the model's content key must tell apart
        "flip:int->float", "flip:float->bool", "flip:bool->str",
        "flip:date->datetime", "flip:datetime->date", "flip:float->float",
        "flip:nan->nan", "flip:datetime0:00:00->datetime2:00:00"}


# ----------------------------------------------------------------------
# Shared entities: the served path against copy-then-filter
# ----------------------------------------------------------------------


@pytest.fixture
def scripted_rules():
    RULE_LANGUAGES["scripted"] = "scripted"
    yield
    del RULE_LANGUAGES["scripted"]


def clone_then_filter(s2s, query, merge_key=None):
    """A served answer as the store made it before it shared its
    entities: copy every stored entity, merge, then filter (frozen
    filter)."""
    plan = s2s.query_handler.planner.plan(parse_s2sql(query))
    mat = s2s.store.lookup(plan)
    errors = ErrorReport(list(mat.errors))
    entities = [copied(entity) for source_id in sorted(mat.slices)
                for entity in mat.slices[source_id].entities]
    if merge_key:
        entities = InstanceGenerator._merge(entities, merge_key, errors)
    return SimpleNamespace(entities=[
        entity for entity in entities
        if oracle_matches(s2s.schema.ontology, entity, plan.conditions)],
        errors=errors)


def from_store(answer):
    """``answer``, checked to have come from the store."""
    def served():
        results = answer()
        for result in (results if isinstance(results, list) else [results]):
            assert result.store_hit
        return results
    return served


def test_a_served_query_answers_what_clone_then_filter_did(scripted_rules):
    seen: set[str] = set()
    for index, rng, world, queries, _drawn in worlds():
        s2s = build_middleware(world, validate=True, store=True)
        handler = s2s.query_handler
        merge_key = rng.choice(MERGE_KEYS)
        for query in queries:
            unconditioned = query.split(" WHERE ")[0]
            for text in (query, unconditioned):  # live, folded
                capture(lambda: s2s.query(text))
            for key in (None, merge_key):
                where = f"world {index} merge_key {key}: {query}"
                expected = capture(lambda: clone_then_filter(s2s, query, key))
                everything = capture(
                    lambda: clone_then_filter(s2s, unconditioned, key))
                if expected[0] == "raised":
                    seen.add("raised")
                elif len(expected[1][0]) < len(everything[1][0]):
                    seen.add("merged" if key else "selected")
                assert capture(from_store(lambda: handler.execute(
                    query, merge_key=key))) == expected, where
                batch = [query, unconditioned, query]
                if expected[0] == "raised":
                    assert capture(lambda: SimpleNamespace(
                        entities=handler.execute_many(batch, merge_key=key),
                        errors=None)) == expected, where
                    continue
                first, sibling, duplicate = from_store(
                    lambda: handler.execute_many(batch, merge_key=key))()
                assert ("ok", snapshot(first)) == expected, where
                assert ("ok", snapshot(duplicate)) == expected, where
                assert ("ok", snapshot(sibling)) == everything, where
    assert seen >= {"raised", "selected", "merged"}


def vandalize(entities) -> list:
    """Try every edit of every container of each entity; returns the
    entities that let one through."""
    let_through = []
    for entity in entities:
        edits = [lambda: entity.satellites.append(Individual("x", "provider")),
                 lambda: entity.coercion_errors.append("x")]
        for individual in entity.all_individuals():
            edits += [lambda i=individual: i.set("brand", "x"),
                      lambda i=individual: i.values.clear(),
                      lambda i=individual: i.link("hasProvider", i),
                      lambda i=individual: i.links.clear()]
            edits += [lambda targets=targets: targets.clear()
                      for targets in individual.links.values()]
        for edit in edits:
            try:
                edit()
            except (TypeError, AttributeError):
                continue
            let_through.append(entity)
            break
    return let_through


@pytest.mark.parametrize("filler", ["write-through", "warm load", "ingest"])
def test_a_stored_entity_refuses_every_edit(filler, tmp_path):
    """Served, warm-loaded and ingest-committed entities are shared with
    the store, so every edit raises and the store stays as it was.  Only
    a merge's copy (an entity that gained a value or a satellite) is the
    caller's own."""
    s2s = clean_world(SEED)
    if filler == "ingest":
        fill(s2s, filler, tmp_path)
    else:
        s2s.query(QUERY)
    if filler == "warm load":
        s2s.store.save(str(tmp_path / "store"))
        s2s.close()
        s2s = clean_world(SEED)
        s2s.store.load(str(tmp_path / "store"))
    mat, = s2s.store.materializations()
    brand = mat.slices["database_0"].entities[0].value("brand")
    selective = f'SELECT product WHERE brand = "{brand}"'

    def state():
        return (snapshot(s2s.query(QUERY)), snapshot(s2s.query(selective)),
                set(s2s.store.graph),
                {source_id: snapshot(SimpleNamespace(
                    entities=slice_.entities, errors=ErrorReport()))
                 for source_id, slice_ in mat.slices.items()})

    stored = {id(entity) for slice_ in mat.slices.values()
              for entity in slice_.entities}
    before = state()
    for slice_ in mat.slices.values():
        assert vandalize(slice_.entities) == []
    for query in (QUERY, selective):
        for merge_key in (None, ["brand", "model"]):
            served = s2s.query(query, merge_key=merge_key)
            assert served.store_hit and served.entities
            let_through = vandalize(served.entities)
            assert not stored.intersection(map(id, let_through))
            if merge_key is None:
                assert let_through == []
        for served in s2s.query_many([query, query, QUERY]):
            assert served.store_hit
            assert vandalize(served.entities) == []
    plan = s2s.query_handler.planner.plan(parse_s2sql(QUERY))
    assert vandalize(s2s.store.serve(plan).entities) == []
    assert state() == before
    s2s.close()


# ----------------------------------------------------------------------
# One fingerprint per source per refresh pass
# ----------------------------------------------------------------------


class CountingSource(RelationalDataSource):
    """Logs every fingerprint probe and every rule read, in order."""

    log: list

    def content_fingerprint(self):
        self.log.append(("probe", self.source_id))
        return super().content_fingerprint()

    def execute_rule(self, rule):
        self.log.append(("read", self.source_id))
        return super().execute_rule(rule)


def test_a_refresh_pass_probes_each_source_once_before_reading():
    log: list = []
    s2s = S2SMiddleware(watch_domain_ontology(), store=True)
    databases = []
    for source_id in ("DB_1", "DB_2"):
        db = Database(source_id.lower())
        db.executescript("""
        CREATE TABLE watches (brand TEXT, price TEXT);
        INSERT INTO watches (brand, price) VALUES
          ('Seiko', '199.00'), ('Casio', '15.50');
        """)
        source = CountingSource(source_id, db)
        source.log = log
        s2s.register_source(source)
        for attribute, column in (("brand", "brand"), ("price", "price")):
            s2s.register_attribute(
                ("product", attribute),
                ExtractionRule.sql(f"SELECT {column} FROM watches"),
                source_id)
        databases.append(db)
    s2s.materialize("SELECT product")
    s2s.materialize("SELECT watch")
    for force in (True, False):
        for db in databases:
            db.execute("UPDATE watches SET price = '20.00' "
                       "WHERE brand = 'Casio'" if force else
                       "UPDATE watches SET price = '21.00' "
                       "WHERE brand = 'Casio'")
        del log[:]
        results = s2s.refresh_store(force=force)
        assert [result.refreshed for result in results] == [
            ["DB_1", "DB_2"]] * 2
        probes = [entry for entry in log if entry[0] == "probe"]
        assert sorted(probes) == [("probe", "DB_1"), ("probe", "DB_2")]
        assert log[:2] == probes, "a source was read before the probes"
        assert len(log) == 2 + 2 * 2 * 2  # two reads per source and pass
    s2s.close()


# ----------------------------------------------------------------------
# Readers outside the lock, writers inside it
# ----------------------------------------------------------------------


def test_serving_outside_the_lock_beside_writers():
    """Readers take stored entities after the store lock is released
    while writers swap the slice they read: every reader must still see
    one whole version of it, and every edit a reader tries must raise.
    SPARQL readers run beside them on ``store.graph``: each answer is one
    whole version too, and none raises."""
    store = SemanticStore()
    key = KEYS[0]
    store.ensure(key[0], [AttributePath.parse(a) for a in sorted(key[1])])
    versions = [[make_entity(f"w{n}", brand, record_index=n)
                 for n in range(20)] for brand in ("Seiko", "Casio")]
    store.commit(key, [SliceWrite("db", versions[0], "fp")], [])
    store.touch(key)
    plan = SimpleNamespace(class_name=key[0], required_attributes=[
        AttributePath.parse(a) for a in sorted(key[1])])
    failures: list[str] = []

    def write():
        for round_ in range(150):
            store.commit(key, [SliceWrite("db", versions[round_ % 2],
                                          "fp")], [])

    def read():
        for _round in range(150):
            serving = store.serve(plan)
            brands = Counter(e.value("brand") for e in serving.entities)
            if sorted(brands.values()) != [20]:
                failures.append(f"a torn read: {dict(brands)}")
            if vandalize(serving.entities):
                failures.append("an edit of a served entity got through")

    brands = ("PREFIX s2s: <http://example.org/s2s/ontology#> "
              "SELECT ?w ?brand WHERE { ?w s2s:brand ?brand }")

    def ask():
        for _round in range(150):
            try:
                rows = execute_sparql(store.graph, brands).rows
            except Exception as exc:  # a torn read may raise, not answer
                failures.append(f"SPARQL raised {exc!r}")
                continue
            counts = Counter(brand.lexical for _w, brand in rows)
            if sorted(counts.values()) != [20]:
                failures.append(f"a torn SPARQL answer: {dict(counts)}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target)
                   for target in (write, write, read, read, read,
                                  ask, ask, ask)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    stored = store.materialization(key).slices["db"].entities
    assert snapshot(SimpleNamespace(entities=stored, errors=ErrorReport())) \
        == snapshot(SimpleNamespace(entities=versions[1],
                                    errors=ErrorReport()))
    assert set(store.graph) == set(rebuilt(store).graph)
