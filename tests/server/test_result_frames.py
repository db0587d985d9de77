"""RESULT frames: the spliced writer against ``encode_frame``, byte for byte.

The server writes RESULT / RESULTS frames with
:func:`~repro.server.codec.encode_result_frame`, which joins each frozen
entity's kept JSON text instead of re-encoding it.  Whatever it writes
must be exactly ``encode_frame({"kind", "id", "result":
result_to_wire(result)})`` — on seeded random answers (frozen, fresh and
mixed entities; dates, lists, non-ASCII text, coercion errors) and on
real middleware answers: live and served, live answers written from the
generator's columns before anyone reads their entities, ``merge_key``
merges that mix stored entities with their copies, empty, degraded and
stale answers, batches, and the first serve after a one-source refresh.
Counting tests pin where the encoding work goes (and that the server
builds no entity for a live answer), and a seeded envelope fuzz holds
the client's decoder to ``CodecError``.  The seed is ``S2S_DIFF_SEED``
(CI runs a second value).
"""

from __future__ import annotations

import copy
import json
import os
import random
import socket
import struct
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.instances import codec
from repro.core.instances.assembly import AssembledEntity, RecordAssembler
from repro.core.instances.codec import json_default, wire_texts
from repro.core.instances.errors import ErrorEntry, ErrorReport
from repro.core.instances.generator import unbuilt
from repro.core.query.parser import parse_s2sql
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.core.store import SliceWrite
from repro.errors import CodecError
from repro.ontology.builders import logistics_ontology
from repro.ontology.model import Individual
from repro.server import S2SClient, S2SServer, ServerThread
from repro.server.codec import (RemoteQueryResult, encode_result_frame,
                                result_from_wire, result_to_wire,
                                results_from_wire)
from repro.server.protocol import PROTOCOL_VERSION, decode_body, encode_frame
from repro.sources.flaky import FlakySource
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario

SEED = int(os.environ.get("S2S_DIFF_SEED", "28"))


def expected_frame(request_id, answer) -> bytes:
    """What ``encode_frame`` writes for the answer: the reference."""
    if isinstance(answer, list):
        return encode_frame({"kind": "RESULTS", "id": request_id,
                             "results": [result_to_wire(result)
                                         for result in answer]})
    return encode_frame({"kind": "RESULT", "id": request_id,
                         "result": result_to_wire(answer)})


def assert_same_bytes(answer, request_id="r-1") -> bytes:
    """The writer's frame equals the reference, first write and repeat."""
    written = encode_result_frame(request_id, answer)
    assert written == expected_frame(request_id, answer)
    assert encode_result_frame(request_id, answer) == written
    return written


def frozen_flags(result) -> set:
    return {entity._frozen for entity in result.entities}


# -- seeded random answers ------------------------------------------------

TEXTS = ["Seiko", "Čašió", "", 'a "quote" and \\ backslash', "tab\tnew\nline",
         "\x00\x1f\x7f", "  ", "😀 Ünïcode", '{"$date": "2006-07-01"}',
         "$date", "null", "</script>"]
ZONES = [None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))]


def random_text(rng: random.Random) -> str:
    return rng.choice(TEXTS) + rng.choice(["", str(rng.randrange(1000))])


def random_value(rng: random.Random, *, in_list: bool = False):
    kind = rng.randrange(7 if in_list else 8)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 2**63, -(10**30), rng.randrange(10**6)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, 1e300, 5e-324,
                           rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return date(rng.randrange(1, 10000), rng.randrange(1, 13),
                    rng.randrange(1, 29))
    if kind in (5, 6):
        return datetime(rng.randrange(1, 10000), rng.randrange(1, 13),
                        rng.randrange(1, 29), rng.randrange(24),
                        rng.randrange(60), rng.randrange(60),
                        rng.choice([0, rng.randrange(10**6)]),
                        tzinfo=rng.choice(ZONES))
    return [random_value(rng, in_list=True) for _ in range(rng.randrange(4))]


def random_entity(rng: random.Random) -> AssembledEntity:
    individuals = [
        Individual(random_text(rng), random_text(rng),
                   {random_text(rng): random_value(rng)
                    for _ in range(rng.randrange(5))})
        for _ in range(rng.randrange(1, 5))]
    outsider = Individual("outside", "provider", {})
    for individual in individuals:
        for _ in range(rng.randrange(3)):
            targets = [rng.choice(individuals + [outsider])
                       for _ in range(rng.randrange(3))]
            individual.links[random_text(rng)] = targets
    entity = AssembledEntity(individuals[0], individuals[1:],
                             random_text(rng), rng.randrange(10**5),
                             [random_text(rng)
                              for _ in range(rng.randrange(3))])
    if rng.random() < 0.6:
        entity.freeze()
        if rng.random() < 0.5:
            wire_texts(entity, {})  # its texts are already kept
    return entity


def random_answer(rng: random.Random, pool: list) -> SimpleNamespace:
    """The fields of a ``QueryResult`` the wire reads; entities drawn
    fresh or from ``pool`` (one stored entity served twice)."""
    entities = []
    for _ in range(rng.randrange(7)):
        if pool and rng.random() < 0.3:
            entities.append(rng.choice(pool))
        else:
            entities.append(random_entity(rng))
            pool.append(entities[-1])
    maybe = [None, random_text(rng)]
    return SimpleNamespace(
        query=random_text(rng), plan=SimpleNamespace(
            class_name=random_text(rng)),
        entities=entities,
        errors=ErrorReport([ErrorEntry(random_text(rng), random_text(rng),
                                       rng.choice(maybe), rng.choice(maybe))
                            for _ in range(rng.randrange(3))]),
        degraded=rng.random() < 0.5,
        degraded_sources=[random_text(rng) for _ in range(rng.randrange(3))],
        store_hit=rng.random() < 0.5, store_stale=rng.random() < 0.5,
        elapsed_seconds=rng.choice([0.0, 1e-7, 12.5, rng.random()]))


REQUEST_IDS = [None, 0, -7, 2**40, "acme-17", "Čašió-1", 1.5, True,
               ["a", 1]]


def test_random_answers_frame_like_encode_frame():
    pool: list = []
    drawn = set()
    for index in range(200):
        rng = random.Random(f"answers:{SEED}:{index}")
        request_id = rng.choice(REQUEST_IDS)
        if rng.random() < 0.25:
            answer = [random_answer(rng, pool)
                      for _ in range(rng.randrange(4))]
        else:
            answer = random_answer(rng, pool)
            drawn.add(frozenset(frozen_flags(answer)))
        assert_same_bytes(answer, request_id)
    # fresh-only, frozen-only and mixed answers were all drawn
    assert {frozenset(), frozenset({False}), frozenset({True}),
            frozenset({False, True})} <= drawn


# -- real answers ---------------------------------------------------------

def world(**kwargs) -> S2SMiddleware:
    return B2BScenario(n_sources=4, n_products=12,
                       seed=SEED).build_middleware(**kwargs)


def queries() -> list[str]:
    brand = B2BScenario(n_sources=4, n_products=12,
                        seed=SEED).products[0].brand
    return ["SELECT product", f'SELECT product WHERE brand = "{brand}"',
            "SELECT provider", 'SELECT product WHERE brand = "nobody"']


def test_live_and_served_answers():
    stored, live = world(store=True), world()
    for query in queries():
        first = stored.query(query)  # live and frozen by the fold, or served
        served = stored.query(query)
        answer = live.query(query)
        assert served.store_hit
        assert frozen_flags(answer) <= {False}
        assert frozen_flags(served) <= {True}
        for result in (first, served, answer):
            assert_same_bytes(result)
        assert json.loads(assert_same_bytes(served)[4:])["result"][
            "entities"] == json.loads(assert_same_bytes(answer)[4:])[
                "result"]["entities"]
    assert len(stored.query(queries()[-1])) == 0
    assert_same_bytes(stored.query_many(queries()))
    assert_same_bytes(live.query_many(queries()))
    assert_same_bytes([])
    stored.close()
    live.close()


def dirty_world(*, store: bool = True) -> S2SMiddleware:
    """Two records of each database source lack ``water_resistance``, so
    merges fill values in: a merged answer holds stored entities and the
    codec copies that replaced some of them.  A NULL reads as "", which
    does not coerce: a live answer carries coercion failures."""
    scenario = B2BScenario(n_sources=4, n_products=12, seed=SEED)
    for org in scenario.organizations:
        if org.source_type != "database":
            continue
        for product in org.products[:2]:
            org.database.execute(
                f"UPDATE products "
                f"SET {org.native_fields['water_resistance']} = NULL "
                f"WHERE {org.native_fields['model']} = '{product.model}'")
    s2s = scenario.build_middleware(store=store)
    if store:
        s2s.query("SELECT product")
    return s2s


def test_merge_key_answers_mix_stored_entities_and_copies():
    s2s = dirty_world()
    mixed = 0
    for merge_key in (["case"], ["movement"], ["name"], ["brand"]):
        served = s2s.query("SELECT product", merge_key=merge_key)
        assert served.store_hit and served.errors.entries
        mixed += frozen_flags(served) == {True, False}
        assert_same_bytes(served)
        assert_same_bytes(s2s.query_many(queries(), merge_key=merge_key))
    assert mixed
    assert any(entity.coercion_errors
               for entity in s2s.query("SELECT product").entities)
    s2s.close()


def failing_world(*, store: bool):
    clock = FakeClock()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=50, cooldown_seconds=600.0),
        clock=clock)
    s2s = B2BScenario(n_sources=4, n_products=12, seed=SEED).build_middleware(
        store=store, resilience=config)
    flaky = FlakySource(s2s.manager.sources.get("database_0"),
                        failure_rate=0.0, clock=clock)
    s2s.source_repository.register(flaky, replace=True)
    return s2s, flaky


def test_degraded_and_stale_answers_with_errors():
    live, flaky = failing_world(store=False)
    flaky.failure_rate = 1.0
    degraded = live.query("SELECT product")
    assert degraded.degraded and degraded.degraded_sources
    assert degraded.errors.entries
    assert_same_bytes(degraded)
    assert_same_bytes(live.query_many(queries()))

    stored, flaky = failing_world(store=True)
    stored.materialize("SELECT product")
    flaky.failure_rate = 1.0
    result, = stored.refresh_store(force=True)
    assert result.kept_stale == ["database_0"]
    stale = stored.query("SELECT product")
    assert stale.store_hit and stale.store_stale
    assert_same_bytes(stale)
    live.close()
    stored.close()


def test_a_degraded_answer_the_store_did_not_fold_is_merged_and_filtered():
    """A store miss whose extraction failed is not folded, so nothing
    built its entities before the query's merge and conditions apply:
    alone and in a batch, it answers as a middleware without a store."""
    s2s, flaky = failing_world(store=False)
    flaky.failure_rate = 1.0  # a brand some source that answers holds
    brand = s2s.query("SELECT product").entities[-1].value("brand")
    where = f'SELECT product WHERE brand = "{brand}"'
    s2s.close()
    answers = {}
    for store in (False, True):
        s2s, flaky = failing_world(store=store)
        flaky.failure_rate = 1.0
        answers[store] = [
            s2s.query(where), s2s.query("SELECT product", merge_key=["brand"]),
            *s2s.query_many([where, "SELECT product"]),
            *s2s.query_many(["SELECT product"], merge_key=["brand"])]
        assert all(answer.degraded and not answer.store_hit
                   for answer in answers[store])
        s2s.close()
    for live, stored in zip(answers[False], answers[True]):
        assert codec.entities_to_wire(stored.entities) == \
            codec.entities_to_wire(live.entities)
        assert stored.errors.entries == live.errors.entries
        assert_same_bytes(stored)
    assert 0 < len(answers[True][0]) < len(answers[True][3])
    assert len(answers[True][1]) < len(answers[True][3])


def logistics_world(*, store: bool = True) -> S2SMiddleware:
    """Dates, date-times, non-ASCII text and a weight that does not
    coerce, store-backed unless told otherwise; a hand-written slice
    adds multi-valued values."""
    ontology = logistics_ontology()
    ontology.add_attribute("shipment", "scanned", "dateTime")
    database = Database("tms")
    database.executescript("""
    CREATE TABLE shipments (tracking TEXT, kg TEXT, shipped TEXT,
                            scanned TEXT, carrier TEXT);
    INSERT INTO shipments (tracking, kg, shipped, scanned, carrier) VALUES
      ('TRK-Čašió-1', '12.5', '2006-07-01', '2006-07-01T08:30:00+02:00',
       'Überfracht "Nord"'),
      ('TRK-2', 'heavy', '2006-06-20', '2006-06-20T23:59:59.250000',
       'CargoLine\\Süd');
    """)
    s2s = S2SMiddleware(ontology, store=store)
    s2s.register_source(RelationalDataSource("TMS_DB", database))
    for attribute, column in ((("shipment", "tracking_id"), "tracking"),
                              (("shipment", "weight_kg"), "kg"),
                              (("shipment", "ship_date"), "shipped"),
                              (("shipment", "scanned"), "scanned"),
                              (("carrier", "name"), "carrier")):
        s2s.register_attribute(
            attribute, ExtractionRule.sql(f"SELECT {column} FROM shipments"),
            "TMS_DB")
    return s2s


def test_dates_lists_non_ascii_and_coercion_errors():
    s2s = logistics_world()
    first = s2s.query("SELECT shipment")
    assert first.entities and first.errors.entries
    plan = s2s.query_handler.planner.plan(parse_s2sql("SELECT shipment"))
    mat = s2s.store.lookup(plan)
    carrier = Individual("carrier_HAND_0", "carrier", {"name": "Ωmega"})
    shipment = Individual("shipment_HAND_0", "shipment", {
        "tracking_id": ["TRK-9", "TRK-9b"],
        "ship_date": [date(2006, 7, 2), date(2006, 7, 3)],
        "scanned": [datetime(2006, 7, 2, 6, 0, tzinfo=timezone.utc)]})
    shipment.link("carriedBy", carrier)
    s2s.store.commit(mat.key, [SliceWrite("HAND", [AssembledEntity(
        shipment, [carrier], "HAND", 0, ["weight_kg: 'n/a'"])])], None)
    served = s2s.query("SELECT shipment")
    assert served.store_hit and len(served) == len(first) + 1
    values = [value for entity in served.entities
              for individual in entity.all_individuals()
              for value in individual.values.values()]
    assert {date, datetime, list} <= set(map(type, values))
    assert any(entity.coercion_errors for entity in served.entities)
    for result in (first, served):
        assert_same_bytes(result)
    assert_same_bytes(s2s.query_many(["SELECT shipment", "SELECT carrier"]))
    s2s.close()


def database_org(scenario: B2BScenario):
    return next(org for org in scenario.organizations
                if org.source_type == "database")


def reprice(org, product, price: str) -> None:
    org.database.execute(
        f"UPDATE products SET {org.native_fields['price']} = '{price}' "
        f"WHERE {org.native_fields['model']} = '{product.model}'")


def test_the_first_serve_after_a_one_source_refresh():
    """The refreshed slice's entities are new objects with new values at
    the same ``(source_id, record_index)``: the frame carries the new
    value, never a text kept for the record the slice replaced."""
    scenario = B2BScenario(n_sources=4, n_products=12, seed=SEED)
    s2s = scenario.build_middleware(store=True)
    s2s.query("SELECT product")
    before = assert_same_bytes(s2s.query("SELECT product"))
    org = database_org(scenario)
    reprice(org, org.products[0], "4321.5")
    result, = s2s.refresh_store()
    assert result.refreshed == [org.source_id]
    served = s2s.query("SELECT product")
    after = assert_same_bytes(served)
    assert after != before and b"4321.5" in after and b"4321.5" not in before
    s2s.close()


def assert_written_from_columns(answer, request_id="r-1") -> None:
    """A live answer nobody read is written from its blocks, and its
    frame equals the reference written from the entities built after."""
    results = answer if isinstance(answer, list) else [answer]
    assert all(unbuilt(result) is not None for result in results)
    for result in results:  # only the answer's own cells stay alive
        blocks = [block for source in unbuilt(result).sources
                  for block in source]
        assert sum(map(len, blocks)) == len(result)
        assert all(len(column) == len(block) for block in blocks
                   for cells in block.typed for column in cells)
    written = encode_result_frame(request_id, answer)
    assert all(unbuilt(result) is not None for result in results)
    assert written == expected_frame(request_id, answer)


def test_a_live_answer_nobody_read_frames_like_encode_frame():
    shipments = ["SELECT shipment", "SELECT carrier",
                 'SELECT shipment WHERE tracking_id = "TRK-2"']
    for s2s, texts in ((world(), queries()),
                       (dirty_world(store=False), queries()),
                       (logistics_world(store=False), shipments)):
        for text in texts:
            assert_written_from_columns(s2s.query(text))
        assert_written_from_columns(s2s.query_many(texts + texts[:1]))
        s2s.close()


# -- where the encoding goes ----------------------------------------------

@pytest.fixture
def encodings(monkeypatch):
    """Counts calls of the entity codec's ``_layout``."""
    calls = []
    original = codec._layout

    def counting(entity):
        calls.append(entity)
        return original(entity)

    monkeypatch.setattr(codec, "_layout", counting)
    return calls


def test_a_served_entity_is_encoded_once(encodings):
    scenario = B2BScenario(n_sources=4, n_products=12, seed=SEED)
    s2s = scenario.build_middleware(store=True)
    encode_result_frame(1, s2s.query("SELECT product"))  # folded: kept
    assert len(encodings) == 12
    encodings.clear()
    encode_result_frame(2, s2s.query("SELECT product"))
    encode_result_frame(3, s2s.query_many(["SELECT product"] * 2))
    assert encodings == []

    org = database_org(scenario)
    reprice(org, org.products[0], "4321.5")
    result, = s2s.refresh_store()
    assert result.refreshed == [org.source_id]
    refreshed = s2s.store.lookup(s2s.query_handler.planner.plan(
        parse_s2sql("SELECT product"))).slices[org.source_id].entities
    encode_result_frame(4, s2s.query("SELECT product"))
    assert [id(entity) for entity in encodings] == \
        [id(entity) for entity in refreshed]
    encodings.clear()
    encode_result_frame(5, s2s.query("SELECT product"))
    assert encodings == []
    s2s.close()


def test_an_answer_that_is_not_frozen_is_written_afresh(encodings):
    """A middleware without a store hands out entities callers may edit:
    nothing is kept, so an edit after a first write goes out.  Until
    someone reads ``entities`` the answer is written from the
    generator's columns, with no entity laid out."""
    s2s = world()
    answer = s2s.query("SELECT product")
    encode_result_frame(1, answer)
    assert encodings == []
    assert len(answer.entities) == 12  # built now
    for _write in range(2):
        encodings.clear()
        encode_result_frame(1, answer)
        assert len(encodings) == 12  # one pass per write, none kept
    first = assert_same_bytes(answer)
    entity = answer.entities[0]
    wire_texts(entity, {})
    entity.primary.values["brand"] = "Edited"
    assert '"Edited"' in wire_texts(entity, {})[1]
    edited = assert_same_bytes(answer)
    assert edited != first and b'"Edited"' in edited
    # mixed with stored entities, the fresh one is still written afresh
    stored = world(store=True)
    served = stored.query("SELECT product").entities
    mixed = copy.copy(answer)
    mixed.entities = [*served[:2], entity]
    assert frozen_flags(mixed) == {True, False}
    assert_same_bytes(mixed)
    entity.primary.values["brand"] = "Edited again"
    assert b'"Edited again"' in assert_same_bytes(mixed)
    stored.close()
    s2s.close()


# -- what the server sends ------------------------------------------------

def exchange(sock: socket.socket, payload: dict) -> bytes:
    """Send one frame, return the reply frame's raw bytes."""
    sock.sendall(encode_frame(payload))
    header = sock.recv(4, socket.MSG_WAITALL)
    (length,) = struct.unpack(">I", header)
    body = bytearray()
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "the server hung up mid-frame"
        body += chunk
    return header + bytes(body)


def test_the_server_writes_canonical_result_frames():
    s2s = world(store=True)
    s2s.query("SELECT product")
    with ServerThread(S2SServer({"t": s2s})) as (host, port):
        with socket.create_connection((host, port), timeout=10) as sock:
            exchange(sock, {"kind": "HELLO", "tenant": "t",
                            "protocol": PROTOCOL_VERSION})
            replies = [
                exchange(sock, {"kind": "QUERY", "id": "q-Č",
                                "s2sql": "SELECT product"}),
                exchange(sock, {"kind": "QUERY", "id": 7,
                                "s2sql": "SELECT product",
                                "merge_key": ["brand"]}),
                exchange(sock, {"kind": "QUERY_MANY", "id": None,
                                "queries": queries()})]
            exchange(sock, {"kind": "PARSE", "id": 1, "name": "all",
                            "s2sql": "SELECT product"})
            exchange(sock, {"kind": "BIND", "id": 2, "name": "all"})
            replies.append(exchange(sock, {"kind": "EXECUTE", "id": 3,
                                           "portal": "all"}))
    for raw in replies:
        payload = decode_body(raw[4:])
        assert encode_frame(payload) == raw  # compact, in key order
    local = s2s.query("SELECT product")
    remote = decode_body(replies[0][4:])["result"]
    assert (remote["store_hit"], remote["entities"]) == (
        True, json.loads(json.dumps(result_to_wire(local),
                                    default=json_default))["entities"])
    assert len(decode_body(replies[2][4:])["results"]) == len(queries())
    s2s.close()


def test_a_live_answer_goes_out_with_no_entity_built(monkeypatch):
    """Neither a QUERY nor a prepared EXECUTE of a live answer builds an
    individual on the server: its rows come from the generator's
    columns.  The client decodes what the in-process answer holds."""
    builds = []
    build = RecordAssembler.build

    def counting(self, plan, *args):
        builds.append(plan)
        return build(self, plan, *args)

    monkeypatch.setattr(RecordAssembler, "build", counting)
    s2s = world()
    with ServerThread(S2SServer({"t": s2s})) as (host, port):
        with S2SClient(host, port, tenant="t") as client:
            queried = client.query("SELECT product")
            executed = client.prepare("all", "SELECT product").execute()
    assert builds == []
    local = s2s.query("SELECT product")
    assert len(local.entities) == 12 and builds  # reading builds
    assert queried.entities == local.entities
    assert executed.entities == local.entities
    s2s.close()


# -- the envelope decoder -------------------------------------------------

def good_envelope() -> dict:
    s2s = logistics_world()
    s2s.query("SELECT shipment")
    served = s2s.query("SELECT shipment")
    s2s.close()
    return json.loads(encode_result_frame("r", served)[4:])["result"]


ENVELOPE_BUGS = {
    "elapsed_seconds past a float": ("elapsed_seconds", 10**400),
    "elapsed_seconds a bool": ("elapsed_seconds", True),
    "elapsed_seconds an integer": ("elapsed_seconds", 0),
    "elapsed_seconds text": ("elapsed_seconds", "0.5"),
    "degraded text": ("degraded", "false"),
    "store_hit text": ("store_hit", "no"),
    "store_stale a number": ("store_stale", 0),
    "query a number": ("query", 5),
    "query_class null": ("query_class", None),
    "degraded_sources text": ("degraded_sources", "ab"),
    "degraded_sources holding a number": ("degraded_sources", ["a", 1]),
    "entities an object": ("entities", {}),
    "errors text": ("errors", "none"),
}


@pytest.mark.parametrize("name, value", list(ENVELOPE_BUGS.values()),
                         ids=list(ENVELOPE_BUGS))
def test_a_field_of_the_wrong_type_is_refused(name, value):
    wire = good_envelope()
    assert isinstance(result_from_wire(wire), RemoteQueryResult)
    wire[name] = value
    with pytest.raises(CodecError):
        result_from_wire(wire)


RESULT_FIELDS = ["query", "query_class", "entities", "errors", "degraded",
                 "degraded_sources", "store_hit", "store_stale",
                 "elapsed_seconds"]


@pytest.mark.parametrize("name", RESULT_FIELDS)
def test_a_missing_field_is_refused(name):
    wire = good_envelope()
    del wire[name]
    with pytest.raises(CodecError):
        result_from_wire(wire)


@pytest.mark.parametrize("frame", [
    {}, {"results": None}, {"results": 5}, {"results": "ab"},
    {"results": {}}, {"results": [5]}, {"results": [None]},
    {"results": [[]]}, None], ids=repr)
def test_a_results_frame_carries_an_array_of_results(frame):
    with pytest.raises(CodecError):
        results_from_wire(frame)


HOSTILE_VALUES = [None, True, False, 0, -1, 5, 1.5, 10**400, float("nan"),
                  float("inf"), "", "false", "no", "ab", [], [1], [None],
                  ["a"], {}, {"$date": "x"}, {"$date": 5},
                  {"$dateTime": "2006-07-01"}, [[[]]], {"a": {"b": []}}]
KEYS = [*RESULT_FIELDS, "shapes", "carriedBy", "x"]


def locations(node, path=()):
    """Every path into ``node`` below its root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from locations(child, path + (key,))


def mutated(rng: random.Random, payload):
    """``payload`` after one to three node replacements, deletions or
    insertions (rarely the whole payload replaced)."""
    if rng.random() < 0.05:
        return copy.deepcopy(rng.choice(HOSTILE_VALUES))
    payload = copy.deepcopy(payload)
    for _ in range(rng.randrange(1, 4)):
        paths = list(locations(payload))
        if not paths:
            break
        *parents, key = rng.choice(paths)
        parent = payload
        for step in parents:
            parent = parent[step]
        action = rng.random()
        value = copy.deepcopy(rng.choice(HOSTILE_VALUES))
        if action < 0.2:
            del parent[key]
        elif action < 0.3 and isinstance(parent, dict):
            parent[rng.choice(KEYS)] = value
        elif action < 0.4 and isinstance(parent, list):
            parent.insert(rng.randrange(len(parent) + 1), value)
        else:
            parent[key] = value
    return payload


def torn_text(rng: random.Random, payload):
    """``payload`` as JSON text with one to three bytes flipped, parsed
    back when it still parses (``None`` when it does not)."""
    data = bytearray(json.dumps(payload).encode("utf-8"))
    for _ in range(rng.randrange(1, 4)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None


def _index_bug(rng, wire):
    row = rng.choice(wire["entities"])
    row[0] = rng.choice([len(wire["shapes"]), len(wire["shapes"]) + 7, -1,
                         -len(wire["shapes"]), row[0] == 0, True, False,
                         0.0, "0", None])


def _attribute_bug(rng, wire):
    attributes = rng.choice(rng.choice(wire["shapes"]))[1]
    if len(attributes) > 1 and rng.random() < 0.5:
        attributes[-1] = attributes[0]  # a duplicate, the width unchanged
    else:
        attributes[rng.randrange(len(attributes))] = rng.choice(
            [5, None, True, ["name"], {"name": 1}])


def _link_bug(rng, wire):
    template = rng.choice(wire["shapes"])
    links = rng.choice(template)[2]
    links[rng.choice([*links, "x"])] = [rng.choice(
        [len(template), len(template) + 3, -1, True, 0.0, "1", None])]


def _cell_count_bug(rng, wire):
    row = rng.choice(wire["entities"])
    if rng.random() < 0.3:
        row.append(copy.deepcopy(row[-1]) if rng.random() < 0.5 else [])
    elif rng.random() < 0.3:
        del row[rng.randrange(4, len(row))]
    else:
        cell = rng.choice(row[4:])
        cell.append("extra") if rng.random() < 0.5 else cell.pop()


def _header_bug(rng, wire):
    row = rng.choice(wire["entities"])
    where = rng.randrange(5)
    if where == 0:
        row[1] = rng.choice([5, None, True, ["DB_1"], {}])  # source_id
    elif where == 1:
        row[2] = rng.choice(["0", None, True, 1.0, [0]])  # record_index
    elif where == 2:
        row[3] = rng.choice(["x", None, {}, [5], ["x", None]])  # errors
    elif where == 3:
        rng.choice(row[4:])[0] = rng.choice([5, None, True, ["w1"], {}])
    else:  # a class name
        rng.choice(wire["shapes"][row[0]])[0] = rng.choice(
            [5, None, True, ["watch"], {}])


def _object_value_bug(rng, wire):
    cell = rng.choice(rng.choice(wire["entities"])[4:])
    cell[rng.randrange(1, len(cell))] = rng.choice(
        [{}, {"a": 1}, {"$date": 5}, {"$date": "soon"}, {"$time": "08:30"},
         {"$date": "2006-07-01", "$x": 1}, {"$dateTime": None}])


#: mutations of a RESULT body's templates and rows, each one a body no
#: client may decode
SHAPE_AND_ROW_BUGS = [_index_bug, _attribute_bug, _link_bug, _cell_count_bug,
                      _header_bug, _object_value_bug]


def assert_typed(result: RemoteQueryResult) -> None:
    """A decoded result holds exactly the types the fields promise."""
    assert type(result.query) is str and type(result.query_class) is str
    assert {type(flag) for flag in (result.degraded, result.store_hit,
                                    result.store_stale)} == {bool}
    assert all(type(source) is str for source in result.degraded_sources)
    assert type(result.server_seconds) is float
    assert all(type(entity) is AssembledEntity for entity in result.entities)
    assert all(type(entry) is ErrorEntry for entry in result.errors)
    for entity in result.entities:
        assert type(entity.source_id) is str
        assert type(entity.record_index) is int
        assert all(type(error) is str for error in entity.coercion_errors)
        assert all(type(individual.identifier) is str
                   and type(individual.class_name) is str
                   for individual in entity.all_individuals())


def test_only_codec_errors_escape_mutated_envelopes():
    good = good_envelope()
    outcomes = {"decoded": 0, "refused": 0}
    for index in range(400):
        rng = random.Random(f"envelopes:{SEED}:{index}")
        batch = rng.random() < 0.3
        payload = [good] * rng.randrange(1, 3) if batch else good
        if rng.random() < 0.3:
            payload = copy.deepcopy(payload)
            bug = rng.choice(SHAPE_AND_ROW_BUGS)
            bug(rng, rng.choice(payload) if batch else payload)
            with pytest.raises(CodecError):
                results_from_wire({"results": payload}) if batch \
                    else result_from_wire(payload)
            outcomes[bug.__name__] = outcomes.get(bug.__name__, 0) + 1
            continue
        payload = (torn_text(rng, payload) if rng.random() < 0.2
                   else mutated(rng, payload))
        try:
            decoded = (results_from_wire({"results": payload}) if batch
                       else result_from_wire(payload))
        except CodecError:
            outcomes["refused"] += 1
            continue
        outcomes["decoded"] += 1
        for result in decoded if batch else [decoded]:
            assert_typed(result)
    assert outcomes["decoded"] and outcomes["refused"]
    assert {bug.__name__ for bug in SHAPE_AND_ROW_BUGS} <= set(outcomes)
