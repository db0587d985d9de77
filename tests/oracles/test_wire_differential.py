"""Differential test: the shape-keyed RESULT body against the 2.19 codec.

Protocol revision 2 writes an answer as one template per record shape
plus one value row per entity (``repro.server.codec``); revision 1 wrote
one object per entity, and that codec is frozen in
:mod:`tests.oracles.wire_codec_2_19`.  Every answer below goes through
both: the new side as the server writes it (``encode_result_frame``,
which must equal ``encode_frame`` of ``result_to_wire`` byte for byte)
and the client reads it (``decode_body`` + ``result_from_wire``), the
oracle side through JSON and its own decoder.  The decoded answers must
be entity for entity the same: source, record index, coercion errors,
and per individual the identifier, class, values (their order, types
and reprs) and links (as indices into the entity).

The answers: seeded random ones drawn from a small vocabulary, so that
entities of one class and attribute set often differ only in their
links (several shapes per answer, single-individual entities, links
out of the entity that are dropped, dates, lists, non-ASCII text,
coercion errors, frozen entities with and without kept texts, empty
answers); and real ones — every query shape of every ledger world,
live and served, ``merge_key`` merges that mix stored entities with
their copies, degraded and stale answers, and dates and lists in a
store.  The seed is ``S2S_DIFF_SEED`` (CI runs a second value).
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from benchmarks.ledger.worlds import WORKLOADS, build_world, make_spec
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.codec import compact_json, wire_texts
from repro.core.instances.errors import ErrorEntry, ErrorReport
from repro.core.query.parser import parse_s2sql
from repro.core.store import SliceWrite
from repro.ontology.model import Individual
from repro.server.codec import (encode_result_frame, result_from_wire,
                                result_to_wire, results_from_wire)
from repro.server.protocol import decode_body, encode_frame
from tests.oracles import wire_codec_2_19 as oracle
from tests.server.test_result_frames import (dirty_world, failing_world,
                                             logistics_world, queries)

SEED = int(os.environ.get("S2S_DIFF_SEED", "19"))

#: what the comparisons of the running test saw
SEEN: Counter = Counter()


@pytest.fixture(autouse=True)
def seen():
    SEEN.clear()
    return SEEN


def assert_seen(*cases: str) -> None:
    assert [case for case in cases if not SEEN[case]] == []


def new_side(answer, request_id="r"):
    """What a client decodes from the frame the server writes."""
    written = encode_result_frame(request_id, answer)
    many = isinstance(answer, list)
    payload = ({"kind": "RESULTS", "id": request_id,
                "results": [result_to_wire(result) for result in answer]}
               if many else
               {"kind": "RESULT", "id": request_id,
                "result": result_to_wire(answer)})
    assert written == encode_frame(payload)
    body = decode_body(written[4:])
    for wire in body["results"] if many else [body["result"]]:
        SEEN["several shapes"] += len(wire["shapes"]) > 1
        SEEN["shared shape"] += len(wire["entities"]) > len(wire["shapes"])
    return results_from_wire(body) if many else result_from_wire(body["result"])


def oracle_side(answer):
    """What the 2.19 client decoded from the 2.19 payload."""
    if isinstance(answer, list):
        return [oracle_side(result) for result in answer]
    return oracle.result_from_wire(json.loads(compact_json(
        oracle.result_to_wire(answer))))


def value_form(value):
    if isinstance(value, list):
        return ("list", [value_form(item) for item in value])
    return (type(value).__name__, repr(value))


def entity_form(entity) -> tuple:
    """Everything a decoded entity says, links as indices."""
    assert type(entity) is AssembledEntity
    individuals = entity.all_individuals()
    index_of = {id(individual): n for n, individual in enumerate(individuals)}
    return (entity.source_id, entity.record_index,
            list(entity.coercion_errors),
            [(type(individual).__name__, individual.identifier,
              individual.class_name,
              [(name, value_form(value))
               for name, value in individual.values.items()],
              [(name, [index_of[id(target)] for target in targets])
               for name, targets in individual.links.items()])
             for individual in individuals])


def result_form(result) -> tuple:
    return (result.query, result.query_class, result.errors,
            result.degraded, result.degraded_sources, result.store_hit,
            result.store_stale, result.elapsed_seconds,
            [entity_form(entity) for entity in result.entities])


def count(answer) -> None:
    """Tally what one in-process answer holds."""
    for result in answer if isinstance(answer, list) else [answer]:
        SEEN["answers"] += 1
        SEEN["empty"] += not result.entities
        SEEN["degraded"] += bool(result.degraded)
        SEEN["stale"] += bool(result.store_stale)
        SEEN["served"] += bool(result.store_hit)
        SEEN["mixed"] += {entity._frozen for entity in result.entities} \
            == {True, False}
        for entity in result.entities:
            SEEN["entities"] += 1
            SEEN["frozen" if entity._frozen else "fresh"] += 1
            individuals = entity.all_individuals()
            SEEN["single individual"] += len(individuals) == 1
            SEEN["coercion error"] += bool(entity.coercion_errors)
            inside = {id(individual) for individual in individuals}
            for individual in individuals:
                SEEN["link dropped"] += any(
                    id(target) not in inside
                    for targets in individual.links.values()
                    for target in targets)
                for value in individual.values.values():
                    items = value if isinstance(value, list) else [value]
                    SEEN["list"] += isinstance(value, list)
                    SEEN["date"] += any(isinstance(item, date)
                                        for item in items)
                    SEEN["non-ASCII"] += any(
                        isinstance(item, str) and not item.isascii()
                        for item in items)


def assert_same_answer(answer, request_id="r") -> None:
    count(answer)
    new, old = new_side(answer, request_id), oracle_side(answer)
    if isinstance(answer, list):
        assert [result_form(result) for result in new] == \
            [result_form(result) for result in old]
    else:
        assert result_form(new) == result_form(old)


# -- seeded random answers ------------------------------------------------

CLASSES = ["watch", "provider", "Čašió"]
#: the last is wider than the decoder's compiled dict displays go
ATTRIBUTE_SETS = [(), ("brand",), ("brand", "price"), ("price", "brand"),
                  ("name", "😀 Ünïcode", "ship_date"), ("$date", "x"),
                  tuple(f"column_{n}" for n in range(40))]
LINK_NAMES = ["hasProvider", "carriedBy", "Ωlink"]
TEXTS = ["Seiko", "Čašió", "", 'a "quote" and \\ backslash', "tab\tnew\nline",
         "\x00\x1f\x7f", "😀 Ünïcode", '{"$date": "2006-07-01"}', "$date",
         "null", "</script>"]
ZONES = [None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))]


def random_value(rng: random.Random, *, in_list: bool = False):
    kind = rng.randrange(8 if in_list else 9)
    if kind == 0:
        return rng.choice(TEXTS)
    if kind == 1:
        return rng.choice([0, -1, 2**63, -(10**30), rng.randrange(10**6)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, 1e300, 5e-324,
                           rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    if kind == 5:
        return date(rng.randrange(1, 10000), rng.randrange(1, 13),
                    rng.randrange(1, 29))
    if kind in (6, 7):
        return datetime(rng.randrange(1, 10000), rng.randrange(1, 13),
                        rng.randrange(1, 29), rng.randrange(24),
                        rng.randrange(60), rng.randrange(60),
                        rng.choice([0, rng.randrange(10**6)]),
                        tzinfo=rng.choice(ZONES))
    return [random_value(rng, in_list=True) for _ in range(rng.randrange(4))]


def random_entity(rng: random.Random) -> AssembledEntity:
    individuals = [
        Individual(f"{rng.choice(TEXTS)}_{rng.randrange(100)}",
                   rng.choice(CLASSES),
                   {name: random_value(rng)
                    for name in rng.choice(ATTRIBUTE_SETS)})
        for _ in range(rng.choice([1, 1, 2, 2, 3]))]
    outsider = Individual("outside", "provider", {"name": "Elsewhere"})
    for individual in individuals:
        for name in rng.sample(LINK_NAMES, rng.randrange(3)):
            individual.links[name] = [
                rng.choice(individuals + [outsider])
                for _ in range(rng.randrange(3))]
    entity = AssembledEntity(
        individuals[0], individuals[1:], rng.choice(["DB_1", "Čašió_2"]),
        rng.randrange(10**5),
        [rng.choice(TEXTS) for _ in range(rng.choice([0, 0, 1, 2]))])
    if rng.random() < 0.5:
        entity.freeze()
        if rng.random() < 0.5:
            wire_texts(entity, {})  # its texts are already kept
    return entity


def random_answer(rng: random.Random, pool: list) -> SimpleNamespace:
    """The fields of a ``QueryResult`` the wire reads; an entity may be
    drawn again from ``pool`` (one stored entity served twice)."""
    entities = []
    for _ in range(rng.randrange(9)):
        if pool and rng.random() < 0.3:
            entities.append(rng.choice(pool))
        else:
            entities.append(random_entity(rng))
            pool.append(entities[-1])
    maybe = [None, rng.choice(TEXTS)]
    return SimpleNamespace(
        query=rng.choice(TEXTS), plan=SimpleNamespace(
            class_name=rng.choice(CLASSES)),
        entities=entities,
        errors=ErrorReport([ErrorEntry(rng.choice(TEXTS), rng.choice(TEXTS),
                                       rng.choice(maybe), rng.choice(maybe))
                            for _ in range(rng.randrange(3))]),
        degraded=rng.random() < 0.5,
        degraded_sources=[rng.choice(TEXTS) for _ in range(rng.randrange(3))],
        store_hit=rng.random() < 0.5, store_stale=rng.random() < 0.5,
        elapsed_seconds=rng.choice([0.0, 1e-7, 12.5, rng.random()]))


def test_random_answers_decode_as_the_2_19_codec_decoded_them():
    pool: list = []
    for index in range(300):
        rng = random.Random(f"wire-differential:{SEED}:{index}")
        if rng.random() < 0.2:
            assert_same_answer([random_answer(rng, pool)
                                for _ in range(rng.randrange(4))], index)
        else:
            assert_same_answer(random_answer(rng, pool), index)
    assert_seen("several shapes", "shared shape", "single individual",
                "link dropped", "date", "list", "non-ASCII",
                "coercion error", "frozen", "fresh", "mixed", "empty")


# -- real answers ---------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_ledger_world_answers_alike(workload):
    """Every query shape of the workload's world (the plain serial one
    the ledger takes its expected answers from), one by one and as a
    batch."""
    world = build_world(make_spec(workload, SEED), oracle=True)
    try:
        for tenant, middleware in world.tenants.items():
            texts = [shape["s2sql"] for shape in world.spec["shapes"][tenant]
                     if "s2sql" in shape]
            for text in texts:
                assert_same_answer(middleware.query(text))
            assert_same_answer(middleware.query_many(texts))
    finally:
        world.close()
    assert_seen("entities", "shared shape")


def test_the_store_churn_world_served_and_merged():
    world = build_world(make_spec("wire_store_churn", SEED))
    middleware = world.tenants["hub"]
    try:
        for shape in world.spec["shapes"]["hub"]:
            if "s2sql" in shape:
                middleware.query(shape["s2sql"])  # live, frozen by the fold
                served = middleware.query(shape["s2sql"])
                assert served.store_hit
                assert_same_answer(served)
                assert_same_answer(middleware.query(
                    shape["s2sql"], merge_key=["brand"]))
        world.mutate_next_source()
        middleware.refresh_store()
        assert_same_answer(middleware.query("SELECT product"))
    finally:
        world.close()
    assert_seen("served", "frozen", "shared shape")


def test_a_served_select_product_is_a_third_of_its_2_19_size():
    """The ledger's ``wire_store_churn`` world at the ledger's seed: 400
    served entities of one record shape."""
    world = build_world(make_spec("wire_store_churn", 11))
    middleware = world.tenants["hub"]
    try:
        middleware.query("SELECT product")
        served = middleware.query("SELECT product")
    finally:
        world.close()
    assert served.store_hit and len(served) == 400
    body = encode_result_frame(1, served)[4:]
    old = compact_json({"kind": "RESULT", "id": 1,
                        "result": oracle.result_to_wire(served)})
    assert len(body) <= 60_000 < 150_000 <= len(old.encode("utf-8"))


def test_merges_that_mix_stored_entities_and_copies():
    s2s = dirty_world()
    for merge_key in (["case"], ["movement"], ["name"], ["brand"]):
        assert_same_answer(s2s.query("SELECT product", merge_key=merge_key))
        assert_same_answer(s2s.query_many(queries(), merge_key=merge_key))
    s2s.close()
    assert_seen("served", "mixed", "coercion error", "empty")


def test_degraded_and_stale_answers():
    live, flaky = failing_world(store=False)
    flaky.failure_rate = 1.0
    assert_same_answer(live.query("SELECT product"))
    assert_same_answer(live.query_many(queries()))
    stored, flaky = failing_world(store=True)
    stored.materialize("SELECT product")
    flaky.failure_rate = 1.0
    stored.refresh_store(force=True)
    stale = stored.query("SELECT product")
    assert stale.store_hit and stale.store_stale
    assert_same_answer(stale)
    live.close()
    stored.close()
    assert_seen("degraded", "stale")


def test_dates_lists_and_coercion_errors_in_a_store():
    s2s = logistics_world()
    assert_same_answer(s2s.query("SELECT shipment"))
    mat = s2s.store.lookup(s2s.query_handler.planner.plan(
        parse_s2sql("SELECT shipment")))
    carrier = Individual("carrier_HAND_0", "carrier", {"name": "Ωmega"})
    shipment = Individual("shipment_HAND_0", "shipment", {
        "tracking_id": ["TRK-9", "TRK-9b"],
        "ship_date": [date(2006, 7, 2), date(2006, 7, 3)],
        "scanned": [datetime(2006, 7, 2, 6, 0, tzinfo=timezone.utc)]})
    shipment.link("carriedBy", carrier)
    s2s.store.commit(mat.key, [SliceWrite("HAND", [AssembledEntity(
        shipment, [carrier], "HAND", 0, ["weight_kg: 'n/a'"])])], None)
    assert_same_answer(s2s.query("SELECT shipment"))
    assert_same_answer(s2s.query("SELECT carrier"))
    assert_same_answer(s2s.query_many(["SELECT shipment", "SELECT carrier"]))
    s2s.close()
    assert_seen("served", "date", "list", "non-ASCII", "coercion error")
