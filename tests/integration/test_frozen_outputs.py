"""Frozen answers through every output.

A store-served answer hands out the store's own entities, frozen: their
``values`` / ``links`` are read-only mappings, which neither ``json``
nor ``pickle`` serializes.  Each way an answer leaves the process is
checked here on a store-served answer against the same live answer from
a middleware without a store: every ``OUTPUT_FORMATS`` rendering, the
wire codec, the store's save / load and its RDF export.  A spawn-pool
ingest into a store that already holds frozen entities shows that none
is ever pickled.
"""

from __future__ import annotations

import json

import pytest

from repro.core.instances.codec import entities_to_wire, json_default
from repro.core.instances.outputs import OUTPUT_FORMATS
from repro.rdf.ntriples import parse_ntriples
from repro.server.codec import result_from_wire, result_to_wire
from repro.workloads import B2BScenario

QUERIES = ["SELECT product", "SELECT product WHERE price < 500",
           "SELECT provider"]


def world(**kwargs):
    return B2BScenario(n_sources=4, n_products=12,
                       seed=7).build_middleware(**kwargs)


def frozen(result) -> bool:
    return all(isinstance(entity.satellites, tuple)
               and not isinstance(entity.primary.values, dict)
               for entity in result.entities)


@pytest.fixture(scope="module")
def worlds():
    live, stored = world(), world(store=True)
    for query in QUERIES:
        stored.materialize(query)
    yield live, stored
    live.close()
    stored.close()


def answers(worlds, query):
    live, stored = worlds
    served = stored.query(query)
    assert served.store_hit and frozen(served) and served.entities
    answer = live.query(query)
    assert not frozen(answer)
    return served, answer


def over_the_wire(result) -> tuple:
    text = json.dumps(result_to_wire(result), default=json_default)
    remote = result_from_wire(json.loads(text))
    return (entities_to_wire(remote.entities), remote.errors,
            remote.degraded)


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("format", OUTPUT_FORMATS)
def test_every_output_format_renders_a_served_answer(worlds, query, format):
    served, answer = answers(worlds, query)
    assert served.serialize(format) == answer.serialize(format)


@pytest.mark.parametrize("query", QUERIES)
def test_the_wire_carries_a_served_answer(worlds, query):
    served, answer = answers(worlds, query)
    assert over_the_wire(served) == over_the_wire(answer)


def test_save_load_and_export_carry_frozen_entities(worlds, tmp_path):
    live, stored = worlds
    stored.store.save(str(tmp_path))
    fresh = world(store=True)
    assert fresh.store.load(str(tmp_path)) == len(stored.store)
    for query in QUERIES:
        reloaded = fresh.query(query)
        assert reloaded.store_hit and frozen(reloaded)
        assert reloaded.serialize("json") == live.query(query).serialize(
            "json")
    for format in ("turtle", "ntriples"):
        assert fresh.store.export(format) == stored.store.export(format)
    exported = set(parse_ntriples(stored.store.export("ntriples")))
    for query in QUERIES:
        assert set(parse_ntriples(
            live.query(query).serialize("ntriples"))) <= exported
    fresh.close()


def test_spawn_pool_ingest_pickles_no_frozen_entity(tmp_path):
    """The store already holds frozen entities when the spawn pool
    starts; workers return mutable ones, which the commit freezes."""
    s2s = world(store=True)
    folded = s2s.query("SELECT product")  # live, and shared by the fold
    assert not folded.store_hit and frozen(folded)
    report = s2s.ingest("SELECT product", journal_dir=str(tmp_path),
                        pool="spawn", n_workers=2, force=True,
                        fsync=False)
    assert report.completed == 4 and report.dead == 0
    served = s2s.query("SELECT product")
    assert served.store_hit and frozen(served)
    live = world()
    assert served.serialize("json") == live.query("SELECT product").serialize(
        "json")
    live.close()
    s2s.close()
