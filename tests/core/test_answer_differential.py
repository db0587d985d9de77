"""Differential tests: the live answer step vs generate-then-filter.

``QueryHandler._answer_live`` hands a query's WHERE conditions to the
instance generator, which applies them to the typed columns before it
builds anything; ``answer_oracle`` is the step it replaced — build,
link and validate every record, then filter — frozen.  Seeded worlds of
scripted sources (dense, sparse, ragged and dirty columns, raw values
that are not strings, a satellite that shares an attribute name with
the primary, an unlinkable class) are queried with every operator, one
to three conditions, qualified and bare attribute names, through
``execute`` and ``execute_many``, with and without
``validate_instances``, with and without a merge key, and against a
middleware with a semantic store (where the mask must stay off).  The
two sides must agree on the entities, their order, identifiers, value
types and links, on the whole error report in order — a rejected
record's coercion, "holds no attribute" and link errors included — and
on whether ``QueryError`` is raised and with which message.

The seed comes from ``S2S_DIFF_SEED`` (CI runs a second value).
"""

from __future__ import annotations

import os
import random
from datetime import date, datetime
from types import SimpleNamespace

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.core.extractor.extractors import Extractor
from repro.core.extractor.manager import ExtractionOutcome
from repro.core.extractor.records import RawFragment, SourceRecordSet
from repro.core.instances import InstanceGenerator
from repro.core.mapping.rules import RULE_LANGUAGES
from repro.core.query.parser import parse_s2sql
from repro.core.query.planner import QueryPlanner
from repro.errors import OntologyError, QueryError, S2SError
from repro.ids import AttributePath
from repro.ontology import Ontology, OntologySchema
from repro.sources.base import ConnectionInfo, DataSource

from .answer_oracle import oracle_answer
from .generation_oracle import snapshot
from .test_generation_differential import BAD, GOOD, build_ontology

SEED = int(os.environ.get("S2S_DIFF_SEED", "24"))
WORLDS = 90
QUERIES_PER_WORLD = 5
QUERY_CLASSES = ["thing", "item", "gadget", "maker"]
OPERATORS = ["=", "!=", "<", ">", "<=", ">=", "LIKE", "CONTAINS"]
STYLES = ["dense", "dense", "sparse", "dirty", "ragged", "satellite-only",
          "unlinkable"]
MERGE_KEYS = [["label"], ["code"], ["name"], ["code", "label"]]
#: few distinct values per range, so that conditions match some records
#: and reject others; the dateTime pool mixes naive and aware values,
#: which ``<`` cannot compare (the filter's QueryError)
POOL = {
    **{name: values[:4] for name, values in GOOD.items()},
    "string": ["Acme", "Diver", "acme tools", 7, "100%_off"],
    "dateTime": ["2006-07-04T10:30:00", datetime(2006, 7, 4, 10, 30),
                 "2006-07-04T10:30:00+02:00", date(2006, 7, 4)],
}


def answer_ontology() -> Ontology:
    """The generation differential's ontology plus ``item.name``: the
    primary and the ``maker`` satellite both declare a ``name``."""
    ontology = build_ontology()
    ontology.add_attribute("item", "name", "string")
    return ontology


class ScriptedSource(DataSource):
    """Returns prepared columns: a rule's code is its attribute id."""

    source_type = "scripted"

    def __init__(self, source_id: str, columns: dict[str, list]) -> None:
        super().__init__(source_id)
        self.columns = columns

    def execute_rule(self, rule: str) -> list:
        return list(self.columns[rule])

    def connection_info(self) -> ConnectionInfo:
        return ConnectionInfo(self.source_type, {})


class ScriptedExtractor(Extractor):
    source_type = "scripted"


@pytest.fixture(autouse=True)
def scripted_language():
    RULE_LANGUAGES["scripted"] = "scripted"
    yield
    del RULE_LANGUAGES["scripted"]


# ----------------------------------------------------------------------
# Worlds and queries, drawn from a seed
# ----------------------------------------------------------------------

def draw_world(rng: random.Random, drawn: set[str]) -> dict[str, dict]:
    """source id -> attribute id -> column."""
    schema = OntologySchema(answer_ontology())
    paths = [str(path) for path in schema.attribute_paths()]
    world = {}
    for source_id in rng.sample(["S1", "db-2/a", "web.3"],
                                rng.randint(1, 3)):
        style = rng.choice(STYLES)
        drawn.add(f"style:{style}")
        if style == "satellite-only":
            names = [p for p in paths if p.startswith("thing.maker.")]
        else:
            names = rng.sample(paths, rng.randint(2, len(paths) - 1))
        if style == "unlinkable":
            names = sorted({*names, "island.population", "thing.item.code"},
                           key=paths.index)
        n_records = rng.randint(1, 8)
        columns = {}
        for attribute_id in names:
            _owner, prop = schema.resolve(attribute_id)
            values = []
            for _ in range(n_records):
                roll = rng.random()
                if style in ("sparse", "dirty") and roll < 0.2:
                    values.append(None)
                elif style == "dirty" and roll < 0.5 and prop.range in BAD:
                    values.append(rng.choice(BAD[prop.range]))
                else:
                    values.append(rng.choice(POOL[prop.range]))
            if style == "ragged" and n_records > 1 and rng.random() < 0.5:
                del values[rng.randrange(1, n_records):]
            columns[attribute_id] = values
        world[source_id] = columns
    return world


def literal(value: object) -> str:
    """``value`` as an S2SQL constraint."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    return '"' + str(value).replace('"', "") + '"'


def draw_query(rng: random.Random, world: dict, planner,
               drawn: set[str]) -> str:
    """One plannable query: 1-3 conditions over attributes the world
    extracts (mostly) or merely declares."""
    schema = planner.schema
    extracted = sorted({key for columns in world.values() for key in columns})
    declared = [str(path) for path in schema.attribute_paths()]
    for _ in range(200):
        class_name = rng.choice(QUERY_CLASSES)
        conditions = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            attribute_id = rng.choice(
                extracted if rng.random() < 0.85 else declared)
            operator = rng.choice(OPERATORS)
            if "thing.seen" in extracted and rng.random() < 0.1:
                # naive against aware: the comparison the filter refuses
                attribute_id = "thing.seen"
                operator = rng.choice(["<", ">", "<=", ">="])
            _owner, prop = schema.resolve(attribute_id)
            cells = [cell for columns in world.values()
                     for cell in columns.get(attribute_id, ())
                     if cell is not None]
            value = rng.choice(cells if cells and rng.random() < 0.8
                               else POOL[prop.range])
            if operator == "LIKE":
                text = str(value)
                cut = rng.randrange(len(text) + 1)
                value = rng.choice([text[:cut] + "%", "%" + text[cut:],
                                    text.replace("e", "_"), text])
            elif operator == "CONTAINS":
                text = str(value)
                value = text[rng.randrange(len(text) + 1):][:3]
            name = attribute_id
            if rng.random() < 0.5:
                name = attribute_id.rsplit(".", 1)[1]
            conditions.append(f"{name} {operator} {literal(value)}")
        query = f"SELECT {class_name} WHERE {' AND '.join(conditions)}"
        try:
            plan = planner.plan(parse_s2sql(query))
        except S2SError:
            continue  # untypable constraint, bare name out of reach
        drawn.update(f"operator:{c.operator}" for c in plan.conditions)
        drawn.add(f"conditions:{len(plan.conditions)}")
        for condition, text in zip(plan.conditions, conditions):
            drawn.add("name:bare" if "." not in text.split(" ")[0]
                      else "name:qualified")
            owner = condition.path.leaf_class
            lineage = schema.ontology.lineage
            drawn.add("on:primary" if owner in lineage(plan.class_name)
                      or plan.class_name in lineage(owner)
                      else "on:satellite")
        return query
    raise AssertionError("no plannable query drawn")


def build_middleware(world: dict, *, validate: bool,
                     store: bool = False) -> S2SMiddleware:
    s2s = S2SMiddleware(answer_ontology(), validate_instances=validate,
                        store=store)
    s2s.register_extractor(ScriptedExtractor(s2s.transforms))
    for source_id, columns in world.items():
        s2s.register_source(ScriptedSource(source_id, columns))
        for attribute_id in columns:
            s2s.register_attribute(
                attribute_id, ExtractionRule("scripted", attribute_id),
                source_id)
    return s2s


# ----------------------------------------------------------------------
# Both sides, as comparable data
# ----------------------------------------------------------------------

def capture(answer) -> tuple:
    """("ok", snapshot) or ("raised", type, message)."""
    try:
        return ("ok", snapshot(answer()))
    except S2SError as exc:
        return ("raised", type(exc), str(exc))


def expected_answer(s2s: S2SMiddleware, query: str, *, validate: bool,
                    merge_key=None) -> tuple:
    plan = s2s.query_handler.planner.plan(parse_s2sql(query))
    outcome = s2s.manager.extract(plan.required_attributes)

    def answer():
        entities, errors = oracle_answer(
            s2s.schema, outcome, plan, validate=validate,
            merge_key=merge_key)
        return SimpleNamespace(entities=entities, errors=errors)
    return capture(answer)


def worlds():
    for index in range(WORLDS):
        rng = random.Random(f"answer-differential:{SEED}:{index}")
        drawn: set[str] = set()
        world = draw_world(rng, drawn)
        planner = build_middleware(world, validate=True).query_handler.planner
        queries = [draw_query(rng, world, planner, drawn)
                   for _ in range(QUERIES_PER_WORLD)]
        yield index, rng, world, queries, drawn


# ----------------------------------------------------------------------
# The differentials
# ----------------------------------------------------------------------

def outcome_branches(expected: tuple, everything: tuple) -> set[str]:
    """Which behaviours the oracle's answer to one query exhibits, given
    its answer to the same query without the WHERE clause."""
    if expected[0] == "raised":
        return {"outcome:query-error"}
    (entities, errors), (candidates, _errors) = expected[1], everything[1]
    kept = {entity[:2] for entity in entities}
    seen = {"outcome:none-matched" if not entities else
            "outcome:all-matched" if len(entities) == len(candidates) else
            "outcome:some-matched"}
    if any(entity[2] for entity in candidates if entity[:2] not in kept):
        seen.add("outcome:rejected-record-with-a-coercion-error")
    if len({tuple(tuple(name for name, _type, _value in member[2])
                  for member in entity[3])
            for entity in candidates if entity[0] == candidates[0][0]}) > 1:
        seen.add("outcome:several-shapes")
    for flag, needle in (("no-primary", "holds no attribute of class"),
                         ("unlinkable", "no object property connects"),
                         ("ragged", "ragged record set")):
        if any(needle in error[1] for error in errors):
            seen.add(f"outcome:{flag}")
    return seen


@pytest.mark.parametrize("validate", [True, False], ids=["validate", "raw"])
def test_every_entry_point_matches_generate_then_filter(validate):
    seen = set()
    for index, _rng, world, queries, _drawn in worlds():
        s2s = build_middleware(world, validate=validate)
        handler = s2s.query_handler
        for query in queries:
            where = f"world {index} validate {validate}: {query}"
            unconditioned = query.split(" WHERE ")[0]
            expected = expected_answer(s2s, query, validate=validate)
            everything = expected_answer(s2s, unconditioned,
                                         validate=validate)
            seen |= outcome_branches(expected, everything)
            assert capture(lambda: handler.execute(query)) == expected, where
            # a batch: a sibling with no condition, and a duplicate
            batch = [query, unconditioned, query]
            if expected[0] == "raised":
                assert capture(lambda: SimpleNamespace(
                    entities=handler.execute_many(batch), errors=None)
                    ) == expected, where
                continue
            first, sibling, duplicate = handler.execute_many(batch)
            assert ("ok", snapshot(first)) == expected, where
            assert ("ok", snapshot(duplicate)) == expected, where
            assert ("ok", snapshot(sibling)) == everything, where
    assert seen >= {
        "outcome:query-error", "outcome:none-matched",
        "outcome:some-matched", "outcome:all-matched",
        "outcome:rejected-record-with-a-coercion-error",
        "outcome:several-shapes", "outcome:no-primary",
        "outcome:unlinkable", "outcome:ragged"}


def test_merge_key_answers_match_generate_merge_filter():
    """With a merge key the mask is off (a merge can hand a non-matching
    record its twin's value): generate everything, merge, filter."""
    merged_away = 0
    for index, rng, world, queries, _drawn in worlds():
        s2s = build_middleware(world, validate=True)
        merge_key = rng.choice(MERGE_KEYS)
        for query in queries:
            expected = expected_answer(s2s, query, validate=True,
                                       merge_key=merge_key)
            actual = capture(lambda: s2s.query_handler.execute(
                query, merge_key=merge_key))
            assert actual == expected, f"world {index} {merge_key}: {query}"
            if expected[0] == "ok" and expected != expected_answer(
                    s2s, query, validate=True):
                merged_away += 1
    assert merged_away >= 10  # the merge key changed answers


def test_with_a_store_everything_is_generated_and_folded():
    """A store folds the live answer's entities, so a conditioned query
    must still generate every record: its own answer equals the oracle's,
    and the unconditioned query the store then serves is complete."""
    served = 0
    for index, _rng, world, queries, _drawn in worlds():
        if index % 3:
            continue
        for query in queries[:2]:
            s2s = build_middleware(world, validate=True, store=True)
            where = f"world {index}: {query}"
            expected = expected_answer(s2s, query, validate=True)
            assert capture(lambda: s2s.query(query)) == expected, where
            if expected[0] == "raised":
                continue
            again = s2s.query(query)
            unconditioned = s2s.query(query.split(" WHERE ")[0])
            everything = expected_answer(
                s2s, query.split(" WHERE ")[0], validate=True)
            assert ("ok", snapshot(again))[1][0] == expected[1][0], where
            if unconditioned.store_hit:
                served += 1
                assert again.store_hit
                assert snapshot(unconditioned)[0] == everything[1][0], where
    assert served >= 10


def test_the_worlds_drew_every_branch():
    seen: set[str] = set()
    for _index, _rng, _world, _queries, drawn in worlds():
        seen |= drawn
    required = {*(f"operator:{operator}" for operator in OPERATORS),
                *(f"style:{style}" for style in STYLES),
                "conditions:1", "conditions:2", "conditions:3",
                "name:bare", "name:qualified", "on:primary", "on:satellite"}
    assert required - seen == set()


def test_rejected_rows_keep_their_errors():
    """The cases the issue names, spelled out: a coercion failure in the
    conditioned cell, one in another cell of a rejected row, a rejected
    row with no primary and a rejected unlinkable row all still report.
    (Straight into the generator: a query over ``item`` never extracts
    ``island.population``.)"""
    columns = {
        "thing.item.code": ["1", "x", "3", None, "5"],
        "thing.item.price": ["1.5", "2.5", "cheap", None, "9.5"],
        "thing.maker.name": ["Acme", "Acme", "Zenith", "Solo", "Acme"],
        "island.population": [None, None, None, None, "12"]}
    record_set = SourceRecordSet("S")
    for attribute_id, values in columns.items():
        record_set.add(RawFragment(AttributePath.parse(attribute_id), "S",
                                   values))
    outcome = ExtractionOutcome(record_sets={"S": record_set})
    schema = OntologySchema(answer_ontology())
    plan = QueryPlanner(schema).plan(parse_s2sql("SELECT item WHERE code = 1"))
    result = InstanceGenerator(schema).generate(outcome, "item",
                                                conditions=plan.conditions)
    assert [e.primary.identifier for e in result.entities] == ["item_S_0"]
    assert (result.records, result.candidates) == (5, 3)
    assert [entry.message for entry in result.errors.entries] == [
        "value 'x' is not a valid integer for 'code'",
        "value 'cheap' is not a valid decimal for 'price'",
        "record 3 holds no attribute of class 'item'",
        "no object property connects 'item' and 'island'; cannot "
        "assemble record"]
    entities, errors = oracle_answer(schema, outcome, plan)
    assert snapshot(result) == snapshot(
        SimpleNamespace(entities=entities, errors=errors))
    with pytest.raises(ValueError, match="before a merge"):
        InstanceGenerator(schema).generate(
            outcome, "item", conditions=plan.conditions, merge_key=["code"])
    # a row kept past a rejected one keeps its own coercion error
    plan = QueryPlanner(schema).plan(
        parse_s2sql("SELECT item WHERE code >= 3"))
    result = InstanceGenerator(schema).generate(outcome, "item",
                                                conditions=plan.conditions)
    assert [(e.primary.identifier, e.coercion_errors)
            for e in result.entities] == [
        ("item_S_2", ["value 'cheap' is not a valid decimal for 'price'"])]
    entities, errors = oracle_answer(schema, outcome, plan)
    assert snapshot(result) == snapshot(
        SimpleNamespace(entities=entities, errors=errors))


def test_incomparable_value_raises_after_generation_like_the_filter():
    world = {"S": {"thing.seen": ["2006-07-04T10:30:00",
                                  "2006-07-04T10:30:00+02:00"],
                   "thing.item.code": ["1", "2"]}}
    s2s = build_middleware(world, validate=True)
    query = 'SELECT item WHERE seen < "2007-01-01T00:00:00"'
    with pytest.raises(QueryError, match="cannot compare extracted value"):
        s2s.query(query)
    # short-circuit: an earlier condition that rejects the record keeps
    # the incomparable cell from ever being compared
    result = s2s.query('SELECT item WHERE code = 1 AND '
                       'seen < "2007-01-01T00:00:00"')
    assert [e.value("code") for e in result.entities] == [1]


def test_rejected_rows_keep_their_residual_problems():
    """What validation says about every entity of a shape is said about
    the records the WHERE rejects too, each under its own identifier."""
    from .test_generation_differential import AnyLinkSchema
    record_set = SourceRecordSet("S")
    for attribute_id, values in {
            "thing.item.code": ["1", "2", "x"],
            "island.population": ["10", "20", "30"]}.items():
        record_set.add(RawFragment(AttributePath.parse(attribute_id), "S",
                                   values))
    outcome = ExtractionOutcome(record_sets={"S": record_set})
    schema = AnyLinkSchema(answer_ontology())
    plan = QueryPlanner(schema).plan(parse_s2sql("SELECT item WHERE code = 2"))
    for validate in (True, False):
        result = InstanceGenerator(schema, validate=validate).generate(
            outcome, "item", conditions=plan.conditions)
        entities, errors = oracle_answer(schema, outcome, plan,
                                         validate=validate)
        assert snapshot(result) == snapshot(
            SimpleNamespace(entities=entities, errors=errors))
        assert [e.primary.identifier for e in result.entities] == ["item_S_1"]
        assert len(result.errors.entries) == (4 if validate else 1)


def test_an_escape_from_generation_wins_over_the_filters_error():
    """Generation used to finish before the filter compared anything, so
    a record set that cannot be generated at all (an attribute outside
    the schema) hides an incomparable value in an earlier source."""
    record_sets = {}
    for source_id, columns in {
            "A": {"thing.seen": ["2006-07-04T10:30:00+02:00"],
                  "thing.item.code": ["1"]},
            "B": {"thing.item.code": ["2"], "thing.item.ghost": ["x"]}
            }.items():
        record_set = record_sets[source_id] = SourceRecordSet(source_id)
        for attribute_id, values in columns.items():
            record_set.add(RawFragment(AttributePath.parse(attribute_id),
                                       source_id, values))
    outcome = ExtractionOutcome(record_sets=record_sets)
    schema = OntologySchema(answer_ontology())
    plan = QueryPlanner(schema).plan(parse_s2sql(
        'SELECT item WHERE seen < "2007-01-01T00:00:00"'))
    with pytest.raises(OntologyError) as expected:
        oracle_answer(schema, outcome, plan)
    with pytest.raises(OntologyError) as actual:
        InstanceGenerator(schema).generate(outcome, "item",
                                           conditions=plan.conditions)
    assert str(actual.value) == str(expected.value)
    del record_sets["B"]
    with pytest.raises(QueryError, match="cannot compare extracted value"):
        InstanceGenerator(schema).generate(outcome, "item",
                                           conditions=plan.conditions)
