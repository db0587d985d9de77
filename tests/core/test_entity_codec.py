"""The entity codec: one JSON form for the wire and the store manifest.

A Hypothesis property holds the encoder and decoder together (entities
and error entries come back field for field, value *types* and value
order included); a table of malformed shape templates and value rows
checks that both consumers — ``result_from_wire`` and ``store.load`` —
let only typed ``S2SError``s escape, and a second table that the store
refuses at load what it could hold but not export; three regression
tests pin the value-losing bugs the three old encoders had (dates over
the wire, multi-valued attributes and coercion errors across a store
restart).

CI runs this file once more with ``--hypothesis-seed=4711``.
"""

from __future__ import annotations

import copy
import datetime
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExtractionRule, S2SMiddleware
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.codec import (compact_json, entities_from_wire,
                                        entities_to_wire, error_from_json,
                                        error_to_json, json_default)
from repro.core.instances.errors import ErrorEntry
from repro.core.store.store import SliceWrite
from repro.errors import CodecError, S2SError
from repro.ids import AttributePath
from repro.ontology.builders import (logistics_ontology,
                                     watch_domain_ontology)
from repro.ontology.model import Individual
from repro.server import S2SClient, S2SServer, ServerThread
from repro.server.codec import result_from_wire
from repro.server.protocol import decode_body, encode_frame
from repro.sources.relational import Database, RelationalDataSource


def through_json(data):
    """What a reader on the other side of a socket or a disk sees."""
    return json.loads(json.dumps(data, default=json_default))


def round_trip(entity: AssembledEntity) -> AssembledEntity:
    decoded, = entities_from_wire(*through_json(entities_to_wire([entity])))
    return decoded


def assert_same_entity(decoded: AssembledEntity, entity: AssembledEntity):
    assert decoded.source_id == entity.source_id
    assert decoded.record_index == entity.record_index
    # a stored entity is frozen: its containers are tuples
    assert list(decoded.coercion_errors) == list(entity.coercion_errors)
    ours, theirs = decoded.all_individuals(), entity.all_individuals()
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        assert type(mine) is Individual
        assert (mine.identifier, mine.class_name) == \
            (other.identifier, other.class_name)
        assert list(mine.values.items()) == list(other.values.items())
        for name, value in mine.values.items():
            assert _types(value) == _types(other.values[name]), name
        assert list(mine.links) == list(other.links)
        for name, targets in mine.links.items():
            # identity, not equality: a link points *into* the entity
            assert [_index(ours, target) for target in targets] == \
                [_index(theirs, target) for target in other.links[name]]


def _types(value):
    if isinstance(value, list):
        return [type(item) for item in value]
    return type(value)


def _index(individuals, target) -> int:
    return next(n for n, individual in enumerate(individuals)
                if individual is target)


# -- strategies -----------------------------------------------------------

TAG_LOOKALIKES = ['{"$date": "2024-05-17"}', "$date", "$dateTime",
                  "2024-05-17", "{}", "[]", "null", "true"]

scalars = st.one_of(
    st.text(max_size=12), st.sampled_from(TAG_LOOKALIKES),
    st.integers(), st.floats(allow_nan=False), st.booleans(),
    st.dates(),
    st.datetimes(timezones=st.sampled_from([None, datetime.timezone.utc])))
values = st.one_of(scalars, st.lists(scalars, max_size=3))
names = st.text(min_size=1, max_size=8)


@st.composite
def entities(draw):
    count = 1 + draw(st.integers(0, 3))
    individuals = [
        Individual(draw(names), draw(names),
                   draw(st.dictionaries(names, values, max_size=5)))
        for _ in range(count)]
    for individual in individuals:
        # any individual may link any other (or itself), either way round
        links = draw(st.dictionaries(
            names, st.lists(st.integers(0, count - 1), max_size=3),
            max_size=2))
        for name, targets in links.items():
            individual.links[name] = [individuals[n] for n in targets]
    return AssembledEntity(individuals[0], individuals[1:], draw(names),
                           draw(st.integers(0, 10_000)),
                           draw(st.lists(st.text(max_size=20), max_size=2)))


optional_text = st.one_of(st.none(), st.text(max_size=12))
error_entries = st.builds(ErrorEntry, st.text(max_size=12),
                          st.text(max_size=40), optional_text, optional_text)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(entities())
    def test_entity_survives_json(self, entity):
        assert_same_entity(round_trip(entity), entity)

    @settings(max_examples=100, deadline=None)
    @given(error_entries)
    def test_error_entry_survives_json(self, entry):
        decoded = error_from_json(through_json(error_to_json(entry)))
        assert type(decoded) is ErrorEntry
        assert decoded == entry

    def test_a_link_out_of_the_entity_is_not_encoded(self):
        outsider = Individual("p9", "provider", {"name": "Elsewhere"})
        watch = Individual("w1", "watch", {"brand": "Seiko"})
        watch.link("hasProvider", outsider)
        decoded = round_trip(AssembledEntity(watch, [], "DB_1", 0))
        assert decoded.primary.links == {"hasProvider": []}

    def test_plain_values_are_plain_json(self):
        """What travelled before this codec existed is spelled as before:
        no hook runs, no tag appears."""
        watch = Individual("w1", "watch", {"brand": "Seiko", "price": 199.0,
                                           "water_resistance": 200,
                                           "in_stock": True,
                                           "model": ["A1", "B2"]})
        shapes, rows = entities_to_wire([AssembledEntity(watch, [], "DB_1", 3)])
        assert json.loads(json.dumps([shapes, rows])) == [shapes, rows]
        assert shapes[0][0][1] == list(watch.values)
        assert rows[0][4] == ["w1", *watch.values.values()]

    def test_dates_travel_tagged(self):
        shipment = Individual("s1", "shipment", {
            "ship_date": datetime.date(2006, 7, 1),
            "scanned": [datetime.datetime(2006, 7, 1, 8, 30)]})
        _shapes, rows = through_json(entities_to_wire(
            [AssembledEntity(shipment, [], "TMS_DB", 0)]))
        assert rows[0][4] == ["s1", {"$date": "2006-07-01"},
                              [{"$dateTime": "2006-07-01T08:30:00"}]]

    def test_a_value_json_cannot_spell_is_a_typed_error(self):
        entity = AssembledEntity(Individual("w1", "watch", {"tags": {1, 2}}),
                                 [], "DB_1", 0)
        shapes, rows = entities_to_wire([entity])
        with pytest.raises(CodecError):
            compact_json(rows)
        with pytest.raises(CodecError):
            encode_frame({"kind": "RESULT",
                          "result": {"shapes": shapes, "entities": rows}})


# -- malformed input ------------------------------------------------------

def good_entity() -> AssembledEntity:
    watch = Individual("w1", "watch", {"brand": "Seiko"})
    provider = Individual("p1", "provider", {"name": "Acme"})
    watch.link("hasProvider", provider)
    return AssembledEntity(watch, [provider], "DB_1", 0, ["bad price"])


def _set(path, value):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return mutate


def _drop(path):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        del data[last]
    return mutate


MALFORMED_ERRORS = {
    "not an object": ["generation", "boom"],
    "no phase": {"message": "m", "source_id": None, "attribute_id": None},
    "no attribute_id": {"phase": "p", "message": "m", "source_id": None},
    "phase a number": {"phase": 1, "message": "m", "source_id": None,
                       "attribute_id": None},
    "source_id a number": {"phase": "p", "message": "m", "source_id": 7,
                           "attribute_id": None},
}

#: name -> what to do to a valid manifest
MALFORMED_MANIFESTS = {
    "no materializations": _drop(["materializations"]),
    "materializations a number": _set(["materializations"], 7),
    "materialization text": _set(["materializations", 0], "product"),
    "no class": _drop(["materializations", 0, "class"]),
    "attributes null": _set(["materializations", 0, "attributes"], None),
    "attribute not a path": _set(["materializations", 0, "attributes"],
                                 ["not a path"]),
    "no slices": _drop(["materializations", 0, "slices"]),
    "slice without source": _drop(["materializations", 0, "slices", 0,
                                   "source"]),
    "generation text": _set(["generation"], "seven"),
    "no generation": _drop(["generation"]),
    "stale text": _set(["materializations", 0, "slices", 0, "stale"],
                       "false"),
    "fingerprint a number": _set(
        ["materializations", 0, "slices", 0, "fingerprint"], 5),
    "source a number": _set(["materializations", 0, "slices", 0, "source"],
                            5),
    "class a number": _set(["materializations", 0, "class"], 5),
    "attributes text": _set(["materializations", 0, "attributes"],
                            "thing.product.brand"),
}


_MISSING = object()


def envelope(**fields) -> dict:
    """A valid RESULT payload carrying the good entity as its one row,
    with ``fields`` in place."""
    shapes, rows = through_json(entities_to_wire([good_entity()]))
    return {"query": "SELECT product", "query_class": "product",
            "shapes": shapes, "entities": rows, "errors": [],
            "degraded": False, "degraded_sources": [], "store_hit": False,
            "store_stale": False, "elapsed_seconds": 0.0, **fields}


def _each(*mutations):
    def mutate(data):
        for mutation in mutations:
            mutation(data)
    return mutate


#: where the good entity sits in ``envelope()``: its shape, its primary's
#: template ``["watch", ["brand"], {"hasProvider": [1]}]``, its row
#: ``[0, "DB_1", 0, ["bad price"], ["w1", "Seiko"], ["p1", "Acme"]]``,
#: the primary's cell and its brand
SHAPE, MEMBER = ("shapes", 0), ("shapes", 0, 0)
ROW, CELL, BRAND = ("entities", 0), ("entities", 0, 4), ("entities", 0, 4, 1)

#: a template or a row the decoder refuses; name -> what to do to
#: envelope(), to a store manifest's slice or to the bare arrays (each
#: holds ``shapes`` and ``entities`` under those names)
MALFORMED_ROWS = {
    "not an object": _set(ROW, {}),
    "a string": _set(ROW, "entity"),
    "null": _set(ROW, None),
    "no individuals": _set(ROW, [0, "DB_1", 0, ["bad price"]]),
    "empty individuals": _set(SHAPE, []),
    "individuals not a list": _set(SHAPE, 7),
    "individual not an object": _set(MEMBER, "w1"),
    "individual without values": _drop([*MEMBER, 1]),
    "individual without links": _drop([*MEMBER, 2]),
    "identifier not text": _set([*CELL, 0], 7),
    "class not text": _set([*MEMBER, 0], None),
    "values a list": _set([*MEMBER, 1], {"brand": 0}),
    "links a list": _set([*MEMBER, 2], [1]),
    "link targets not a list": _set([*MEMBER, 2, "hasProvider"], 1),
    "link index out of range": _set([*MEMBER, 2, "hasProvider"], [2]),
    "link index negative": _set([*MEMBER, 2, "hasProvider"], [-1]),
    "link index a bool": _set([*MEMBER, 2, "hasProvider"], [True]),
    "link index text": _set([*MEMBER, 2, "hasProvider"], ["1"]),
    "unknown tag": _set(BRAND, {"$time": "08:30"}),
    "two-key object": _set(
        BRAND, {"$date": "2024-05-17", "$dateTime": "2024-05-17T00:00:00"}),
    "empty object": _set(BRAND, {}),
    "non-ISO date": _set(BRAND, {"$date": "yesterday"}),
    "date with a time": _set(BRAND, {"$date": "2024-05-17T08:30:00"}),
    "non-ISO dateTime": _set(BRAND, {"$dateTime": "17/05/2024"}),
    "tag payload not text": _set(BRAND, {"$date": 20240517}),
    "list in a list": _set(BRAND, [["x"]]),
    "bad tag in a list": _set(BRAND, ["x", {"$date": "soon"}]),
    "no source_id": _set([*ROW, 1], None),
    "source_id a number": _set([*ROW, 1], 7),
    "record_index text": _set([*ROW, 2], "0"),
    "no coercion_errors": _set([*ROW, 3], None),
    "coercion_errors text": _set([*ROW, 3], "bad price"),
    "coercion error a number": _set([*ROW, 3], [1]),
    "coercion error null": _set([*ROW, 3], [None]),
    "record_index a bool": _set([*ROW, 2], True),
    "identifier null": _set([*CELL, 0], None),
    "cell not a list": _set(CELL, "w1"),
    "cell one value short": _drop([*CELL, 1]),
    "shape index a bool": _set([*ROW, 0], False),
    "shape index out of range": _set([*ROW, 0], 1),
    "attribute name not text": _set([*MEMBER, 1], [5]),
    "attribute named twice": _each(_set([*MEMBER, 1], ["brand", "brand"]),
                                   _set(CELL, ["w1", "Seiko", "Seiko"])),
}

#: a slice the row decoder takes (the wire carries ``null`` values) but the
#: store could not export, so ``store.load`` refuses it; name -> what to do
#: to a manifest slice holding the good entity
UNEXPORTABLE = {
    "null value": _set(BRAND, None),
    "null in a list": _set(BRAND, ["Seiko", None]),
    "identifier no IRI": _set([*CELL, 0], "w^atch_xml_1_0"),
    "class no IRI": _set([*MEMBER, 0], "wa tch"),
    "attribute no IRI": _set([*MEMBER, 1], ["br<and>"]),
    "link no IRI": _set([*MEMBER, 2], {"has Provider": [1]}),
}


def by_name(table):
    return pytest.mark.parametrize("data", list(table.values()),
                                   ids=list(table))


@pytest.fixture(scope="module")
def saved_manifest(tmp_path_factory):
    """A valid version-3 manifest (parsed) of a one-entity store."""
    s2s = watch_world([("Seiko", "199.0")])
    s2s.query("SELECT product")
    directory = tmp_path_factory.mktemp("saved")
    with open(s2s.store.save(str(directory)), encoding="utf-8") as handle:
        return json.load(handle)


def with_good_slice(manifest) -> tuple[dict, dict]:
    """A copy of ``manifest`` whose first slice holds the good entity
    alone, and that slice."""
    manifest = copy.deepcopy(manifest)
    slice_ = manifest["materializations"][0]["slices"][0]
    slice_["shapes"], slice_["entities"] = through_json(
        entities_to_wire([good_entity()]))
    return manifest, slice_


def load_manifest(manifest, tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest),
                                            encoding="utf-8")
    s2s = watch_world([("Casio", "15.5")])
    s2s.query("SELECT product")
    before = s2s.store.export()
    try:
        return s2s.store.load(str(tmp_path))
    except S2SError:
        # a refused manifest leaves the store as it was
        assert s2s.store.export() == before
        raise


class TestMalformedInput:
    def test_the_table_starts_from_a_good_entity(self):
        assert round_trip(good_entity()).value("name") == "Acme"

    @by_name(MALFORMED_ROWS)
    def test_entity_decoder_raises_typed(self, data):
        shapes, rows = through_json(entities_to_wire([good_entity()]))
        arrays = {"shapes": shapes, "entities": rows}
        data(arrays)
        with pytest.raises(CodecError):
            entities_from_wire(arrays["shapes"], arrays["entities"])

    @by_name(MALFORMED_ERRORS)
    def test_error_decoder_raises_typed(self, data):
        with pytest.raises(CodecError):
            error_from_json(data)

    @by_name(MALFORMED_ROWS)
    def test_wire_consumer_raises_typed(self, data):
        wire = envelope()
        data(wire)
        with pytest.raises(CodecError):
            result_from_wire(wire)

    @by_name(MALFORMED_ERRORS)
    def test_wire_consumer_raises_typed_on_errors(self, data):
        with pytest.raises(S2SError):
            result_from_wire(envelope(errors=[data]))

    @pytest.mark.parametrize("wire", [None, [], {"entities": 7},
                                      {"errors": 7},
                                      {"elapsed_seconds": "soon"}],
                             ids=repr)
    def test_wire_consumer_raises_typed_on_the_envelope(self, wire):
        with pytest.raises(CodecError):
            result_from_wire(wire)

    def test_the_good_envelope_decodes(self):
        remote = result_from_wire(envelope())
        assert remote.entities[0].value("name") == "Acme"
        assert_same_entity(remote.entities[0], good_entity())
        for shapes in (_MISSING, None, {}, "[]", [[]], [5]):
            wire = envelope(shapes=shapes)
            if shapes is _MISSING:
                del wire["shapes"]
            with pytest.raises(CodecError):
                result_from_wire(wire)

    @by_name(MALFORMED_ROWS)
    def test_store_consumer_raises_typed(self, data, saved_manifest,
                                         tmp_path):
        manifest, slice_ = with_good_slice(saved_manifest)
        data(slice_)
        with pytest.raises(S2SError):
            load_manifest(manifest, tmp_path)

    def test_a_slice_of_the_good_entity_loads_and_exports(
            self, saved_manifest, tmp_path):
        manifest, _slice = with_good_slice(saved_manifest)
        assert load_manifest(manifest, tmp_path) == 1
        store = S2SMiddleware(watch_domain_ontology(), store=True).store
        store.load(str(tmp_path))
        assert "Acme" in store.export()

    @by_name(UNEXPORTABLE)
    def test_what_the_store_cannot_export_is_refused_at_load(
            self, data, saved_manifest, tmp_path):
        wire = envelope()
        data(wire)
        result_from_wire(wire)  # the wire carries it
        manifest, slice_ = with_good_slice(saved_manifest)
        data(slice_)
        with pytest.raises(S2SError):
            load_manifest(manifest, tmp_path)

    @by_name(MALFORMED_ERRORS)
    def test_store_consumer_raises_typed_on_errors(self, data,
                                                   saved_manifest, tmp_path):
        manifest = copy.deepcopy(saved_manifest)
        manifest["materializations"][0]["errors"] = [data]
        with pytest.raises(S2SError):
            load_manifest(manifest, tmp_path)

    @by_name(MALFORMED_MANIFESTS)
    def test_store_consumer_raises_typed_on_the_manifest(
            self, data, saved_manifest, tmp_path):
        manifest = copy.deepcopy(saved_manifest)
        data(manifest)
        with pytest.raises(S2SError):
            load_manifest(manifest, tmp_path)

    @pytest.mark.parametrize("manifest", [
        [], "manifest", {"materializations": []},
        {"version": 1, "format": "turtle", "materializations": []},
        {"version": 2, "generation": 0, "materializations": []}],
        ids=["a list", "a string", "no version", "version 1", "version 2"])
    def test_other_manifest_versions_are_refused(self, manifest, tmp_path):
        with pytest.raises(S2SError, match="unsupported store manifest "
                                           "version"):
            load_manifest(manifest, tmp_path)

    def test_the_good_manifest_loads(self, saved_manifest, tmp_path):
        assert load_manifest(saved_manifest, tmp_path) == 1


# -- regressions: values the three old encoders lost ----------------------

def watch_world(rows) -> S2SMiddleware:
    """brand + price of the watch ontology over one table (the other six
    attributes stay unmapped: six ``mapping:`` error entries)."""
    database = Database("w")
    database.execute("CREATE TABLE watches (brand TEXT, price TEXT)")
    for brand, price in rows:
        database.execute(f"INSERT INTO watches (brand, price) "
                         f"VALUES ('{brand}', '{price}')")
    s2s = S2SMiddleware(watch_domain_ontology(), store=True)
    s2s.register_source(RelationalDataSource("DB_1", database))
    for attribute in ("brand", "price"):
        s2s.register_attribute(
            ("product", attribute),
            ExtractionRule.sql(f"SELECT {attribute} FROM watches"), "DB_1")
    return s2s


@pytest.fixture(scope="module")
def logistics_server():
    """A live server over a logistics tenant whose ``ship_date`` (range
    ``date``) is mapped."""
    database = Database("tms")
    database.executescript("""
    CREATE TABLE shipments (tracking TEXT, kg REAL, state TEXT,
                            shipped TEXT, carrier TEXT, fleet INTEGER);
    INSERT INTO shipments (tracking, kg, state, shipped, carrier, fleet)
    VALUES
      ('TRK-001', 12.5, 'in-transit', '2006-07-01', 'FastFreight', 120),
      ('TRK-002', 3.0, 'delivered', '2006-06-20', 'CargoLine', 45);
    """)
    s2s = S2SMiddleware(logistics_ontology())
    s2s.register_source(RelationalDataSource("TMS_DB", database))
    for attribute, column in ((("shipment", "tracking_id"), "tracking"),
                              (("shipment", "weight_kg"), "kg"),
                              (("shipment", "status"), "state"),
                              (("shipment", "ship_date"), "shipped"),
                              (("carrier", "name"), "carrier"),
                              (("carrier", "fleet_size"), "fleet")):
        s2s.register_attribute(
            attribute, ExtractionRule.sql(f"SELECT {column} FROM shipments"),
            "TMS_DB")
    with ServerThread(S2SServer({"tms": s2s})) as (host, port):
        yield host, port, s2s
    s2s.close()


class TestDatesOverTheWire:
    """Bug 1: ``encode_frame`` raised ``TypeError: Object of type date is
    not JSON serializable`` and the server answered ``[INTERNAL]``."""

    EXPECTED = [datetime.date(2006, 7, 1), datetime.date(2006, 6, 20)]

    def test_sync_client_reads_dates(self, logistics_server):
        host, port, s2s = logistics_server
        with S2SClient(host, port, tenant="tms") as client:
            remote = client.query("SELECT shipment")
        assert [e.value("ship_date") for e in remote.entities] == \
            self.EXPECTED
        for mine, local in zip(remote.entities,
                               s2s.query("SELECT shipment").entities):
            assert_same_entity(mine, local)

    def test_client_reads_a_date_condition(self, logistics_server):
        host, port, _s2s = logistics_server
        with S2SClient(host, port, tenant="tms") as client:
            remote = client.query(
                'SELECT shipment WHERE ship_date = "2006-07-01"')
        assert [e.value("ship_date") for e in remote.entities] == \
            self.EXPECTED[:1]
        assert type(remote.entities[0]) is AssembledEntity

    def test_the_frame_layer_spells_them(self):
        body = encode_frame({"kind": "X", "when": datetime.date(2006, 7, 1)})
        assert decode_body(body[4:])["when"] == {"$date": "2006-07-01"}


class TestStoreRestart:
    """Bug 3: values came back from the parsed Turtle file one triple at
    a time — last one won, order and coercion errors were lost."""

    KEY_PATHS = [AttributePath.parse("thing.product.model"),
                 AttributePath.parse("thing.product.brand")]

    def committed(self, entity, errors=()):
        s2s = S2SMiddleware(watch_domain_ontology(), store=True)
        mat = s2s.store.ensure("product", self.KEY_PATHS)
        s2s.store.commit(mat.key, [SliceWrite("DB_1", [entity], "f1")],
                         list(errors))
        return s2s.store, mat.key

    def reloaded(self, store, tmp_path):
        store.save(str(tmp_path))
        fresh = S2SMiddleware(watch_domain_ontology(), store=True).store
        assert fresh.load(str(tmp_path)) == 1
        return fresh

    def test_multi_valued_attribute_survives(self, tmp_path):
        watch = Individual("w1", "watch", {"model": ["A1", "B2"],
                                           "brand": "Seiko"})
        store, key = self.committed(AssembledEntity(watch, [], "DB_1", 0))
        fresh = self.reloaded(store, tmp_path)
        entity, = fresh.materialization(key).slices["DB_1"].entities
        assert entity.value("model") == ["A1", "B2"]
        assert list(entity.primary.values) == ["model", "brand"]
        assert fresh.export() == store.export()

    def test_coercion_errors_and_error_entries_survive(self, tmp_path):
        watch = Individual("w1", "watch", {"brand": "Seiko"})
        entry = ErrorEntry("generation", "value 'x' is not a valid double "
                           "for 'price'", "DB_1", "thing.product.price")
        store, key = self.committed(
            AssembledEntity(watch, [], "DB_1", 4, ["price: 'x'"]), [entry])
        mat = self.reloaded(store, tmp_path).materialization(key)
        entity, = mat.slices["DB_1"].entities
        assert entity.coercion_errors == ("price: 'x'",)
        assert entity.record_index == 4
        assert mat.errors == [entry]
        assert mat.slices["DB_1"].fingerprint == "f1"

    def test_typed_values_survive_without_the_graph(self, tmp_path):
        shipment = Individual("s1", "watch", {
            "brand": "1", "price": 1.0, "water_resistance": 1,
            "released": datetime.date(2006, 7, 1)})
        store, key = self.committed(AssembledEntity(shipment, [], "DB_1", 0))
        fresh = self.reloaded(store, tmp_path)
        entity, = fresh.materialization(key).slices["DB_1"].entities
        assert_same_entity(entity, AssembledEntity(shipment, [], "DB_1", 0))
