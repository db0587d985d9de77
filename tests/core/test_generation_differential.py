"""Differential tests: shape-compiled generation vs the frozen oracle.

``InstanceGenerator.generate`` resolves the ontology once per record
shape; ``generation_oracle`` is the interpretive generator it replaced,
frozen.  Seeded random extraction outcomes are run through both and the
results compared field by field — entity order, identifiers, classes,
value key order and Python types, links, satellites, provenance,
coercion errors and the whole error channel.

Class clustering breaks depth ties in ``set`` order, so *which* cluster
is primary under the root query class can differ between processes
(string hashing); both sides run in one process and must agree there.
The coverage test only counts branches that are independent of it.

Every case's unmerged answer is also written by the wire's block writer
before anything reads its entities, and compared with the entity codec's
arrays of the entities built after.
"""

from __future__ import annotations

import random
from datetime import date, datetime

import pytest

from repro.core.extractor.manager import ExtractionOutcome, ExtractionProblem
from repro.core.extractor.records import RawFragment, SourceRecordSet
from repro.core.instances import InstanceGenerator
from repro.core.instances.codec import blocks_to_wire, entities_to_wire
from repro.core.instances.generator import unbuilt
from repro.errors import MappingError, OntologyError
from repro.ids import AttributePath
from repro.ontology import Ontology, OntologySchema, Reasoner
from repro.ontology.model import Individual
from repro.ontology.validation import validate_individual

from .generation_oracle import (oracle_generate, oracle_validate_individual,
                                snapshot)

#: ``side``: a satellite class (``gadget``) sits deeper than the query
#: class, so its cluster comes before the primary's
QUERY_CLASSES = {"root": "thing", "middle": "item", "leaf": "gadget",
                 "side": "maker"}
SEEDS_PER_CELL = 60  # x 4 query classes x validate on/off = 480 cases
SOURCE_IDS = ["S1", "db-2/a", "web.3", "txt 4"]
MERGE_KEYS = [["label"], ["code"], ["name"], ["code", "label"]]


def build_ontology() -> Ontology:
    """A 3-level chain, three satellites and every XSD range.

    ``maker`` is linked primary -> satellite, ``review`` only satellite
    -> primary, ``island`` not at all; ``gadget.rank`` shadows
    ``item.rank`` (two attribute ids, one attribute name); ``tags`` is
    non-functional."""
    onto = Ontology("diff")
    onto.add_class("thing")
    onto.add_attribute("thing", "label", "string")
    onto.add_attribute("thing", "seen", "dateTime")
    onto.add_class("item", parent="thing")
    onto.add_attribute("item", "code", "integer")
    onto.add_attribute("item", "price", "decimal")
    onto.add_attribute("item", "active", "boolean")
    onto.add_attribute("item", "tags", "string", functional=False)
    onto.add_attribute("item", "rank", "integer")
    onto.add_class("gadget", parent="item")
    onto.add_attribute("gadget", "released", "date")
    onto.add_attribute("gadget", "homepage", "anyURI")
    onto.add_attribute("gadget", "weight", "double")
    onto.add_attribute("gadget", "ratio", "float")
    onto.add_attribute("gadget", "rank", "integer")
    onto.add_class("maker", parent="thing")
    onto.add_attribute("maker", "name", "string")
    onto.add_attribute("maker", "founded", "date")
    onto.add_class("review", parent="thing")
    onto.add_attribute("review", "stars", "integer")
    onto.add_attribute("review", "text", "string")
    onto.add_class("island")
    onto.add_attribute("island", "population", "integer")
    onto.add_object_property("item", "madeBy", "maker")
    onto.add_object_property("review", "about", "item")
    onto.add_object_property("review", "aboutGadget", "gadget",
                             functional=True)
    return onto


GOOD = {
    "string": ["Seiko", " padded ", "", 7, 2.5],
    "anyURI": ["http://example.org/x", "urn:a:b"],
    "integer": ["12", " 7 ", "-3", 5, 3.7, True],
    "decimal": ["1.5", " 2 ", "1e3", 3, 0.25],
    "double": ["199.5", "7", 4, 1.25],
    "float": ["0.5", " 8.25 ", 9],
    "boolean": ["yes", "No", "1", "false", " TRUE ", True, False, 0],
    "date": ["2006-07-04", " 2024-02-29 ", date(2006, 7, 4)],
    "dateTime": ["2006-07-04T10:30:00", "2006-07-04",
                 datetime(2006, 7, 4, 10, 30), date(2006, 7, 4)],
}
BAD = {
    "integer": ["deep", "1.5", "", "12 watches"],
    "decimal": ["$12", "cheap"],
    "double": ["NaN$", "1,5"],
    "float": ["--1", "one"],
    "boolean": ["maybe", "2", 2, ""],
    "date": ["July 4", "2006-13-01", datetime(2006, 7, 4, 10, 30), 20060704],
    "dateTime": ["noon", "2006-07-04T25:00:00", 12],
}


def draw_case(seed: int, query_kind: str, validate: bool) -> dict:
    """One extraction outcome, drawn from ``seed``; ``case["drawn"]``
    names every generator branch taken."""
    rng = random.Random(f"generation-differential:{seed}:{query_kind}")
    schema = OntologySchema(build_ontology())
    paths = [str(path) for path in schema.attribute_paths()]
    drawn = {f"query:{query_kind}", f"validate:{validate}"}

    n_sources = rng.randint(1, 4)
    source_ids = rng.sample(SOURCE_IDS, n_sources)
    shared_columns = None
    if n_sources > 1 and rng.random() < 0.5:
        shared_columns = rng.sample(paths, rng.randint(2, 8))
        drawn.add("sources:shared-columns")
    sources = {}
    for source_id in source_ids:
        style = rng.choice(["clean", "clean", "holes", "dirty", "ragged",
                            "satellite-only", "unlinkable"])
        drawn.add(f"style:{style}")
        if style == "satellite-only":
            columns = [p for p in paths
                       if p.startswith(("thing.maker.", "island."))]
        elif shared_columns is not None and style == "clean":
            columns = list(shared_columns)
        else:
            columns = rng.sample(paths, rng.randint(1, len(paths) - 1))
            if shared_columns is not None:
                drawn.add("sources:own-columns")
        if style == "unlinkable":
            columns = sorted({*columns, "island.population",
                              "thing.item.code"}, key=paths.index)
            rng.shuffle(columns)
        if {"thing.item.rank", "thing.item.gadget.rank"} <= set(columns):
            drawn.add("shadowed-attribute-pair")
        n_records = rng.randint(1, 6)
        fragments = {}
        for attribute_id in columns:
            _owner, prop = schema.resolve(attribute_id)
            drawn.add(f"range:{prop.range}")
            if not prop.functional:
                drawn.add("non-functional-attribute")
            values = []
            for _ in range(n_records):
                roll = rng.random()
                if style in ("holes", "dirty") and roll < 0.25:
                    values.append(None)
                    drawn.add("hole")
                elif (style == "dirty" and roll < 0.55
                      and prop.range in BAD):
                    values.append(rng.choice(BAD[prop.range]))
                    drawn.add("uncoercible")
                else:
                    value = rng.choice(GOOD[prop.range])
                    if not isinstance(value, str):
                        drawn.add("non-string-raw")
                    values.append(value)
            if style == "ragged" and len(values) > 1 and rng.random() < 0.5:
                del values[rng.randrange(1, len(values)):]
                drawn.add("ragged")
            fragments[attribute_id] = values
        sources[source_id] = fragments

    case = {"query_class": QUERY_CLASSES[query_kind], "validate": validate,
            "sources": sources, "merge_key": None, "problems": [],
            "missing": [], "drawn": drawn}
    if rng.random() < 0.5:
        case["merge_key"] = rng.choice(MERGE_KEYS)
        drawn.add("merge:on")
    else:
        drawn.add("merge:off")
    if rng.random() < 0.3:
        case["problems"] = [("S9", "thing.label", "source exploded")]
        case["missing"] = ["thing.item.price"]
        drawn.add("upstream-errors")
    return case


def build_outcome(case: dict) -> ExtractionOutcome:
    record_sets = {}
    for source_id, fragments in case["sources"].items():
        record_set = SourceRecordSet(source_id)
        for attribute_id, values in fragments.items():
            record_set.add(RawFragment(AttributePath.parse(attribute_id),
                                       source_id, list(values)))
        record_sets[source_id] = record_set
    return ExtractionOutcome(
        record_sets=record_sets,
        problems=[ExtractionProblem(*problem)
                  for problem in case["problems"]],
        missing_attributes=[AttributePath.parse(path)
                            for path in case["missing"]])


def both_sides(case: dict):
    schema = OntologySchema(build_ontology())
    actual = InstanceGenerator(schema, validate=case["validate"]).generate(
        build_outcome(case), case["query_class"],
        merge_key=case["merge_key"])
    expected = oracle_generate(
        schema, build_outcome(case), case["query_class"],
        validate=case["validate"], merge_key=case["merge_key"])
    return actual, expected


def both_wire_forms(case: dict) -> tuple:
    """The case's unmerged answer as the block writer writes it, before
    anything reads its entities, and as ``entities_to_wire`` writes the
    entities built after."""
    generation = InstanceGenerator(
        OntologySchema(build_ontology()), validate=case["validate"],
    ).generate(build_outcome(case), case["query_class"])
    written = blocks_to_wire(unbuilt(generation))
    return written, entities_to_wire(generation.entities)


def distinct_shapes(case: dict) -> int:
    shapes = set()
    for record_set in build_outcome(case).record_sets.values():
        for record in record_set.align():
            shapes.add(tuple(key for key, value in record.items()
                             if value is not None))
    return len(shapes)


@pytest.mark.parametrize("validate", [True, False], ids=["validate", "raw"])
@pytest.mark.parametrize("query_kind", list(QUERY_CLASSES))
def test_generate_matches_the_frozen_oracle(query_kind, validate):
    for seed in range(SEEDS_PER_CELL):
        case = draw_case(seed, query_kind, validate)
        actual, expected = both_sides(case)
        assert snapshot(actual) == snapshot(expected), (
            f"seed {seed} query {query_kind} validate {validate}")
        assert actual.shapes == distinct_shapes(case), f"seed {seed}"
        written, laid_out = both_wire_forms(case)
        assert written == laid_out, f"seed {seed} (block writer)"


REQUIRED_BRANCHES = {
    *(f"query:{kind}" for kind in QUERY_CLASSES),
    "validate:True", "validate:False", "merge:on", "merge:off",
    *(f"range:{name}" for name in GOOD),
    *(f"style:{style}" for style in (
        "clean", "holes", "dirty", "ragged", "satellite-only", "unlinkable")),
    "hole", "uncoercible", "ragged", "non-string-raw", "upstream-errors",
    "non-functional-attribute", "shadowed-attribute-pair",
    "sources:shared-columns", "sources:own-columns",
    # read off the oracle's answers (all but the root query class, so
    # independent of how this process hashes class names)
    "outcome:forward-link", "outcome:reverse-link", "outcome:unlinkable",
    "outcome:no-primary", "outcome:coercion-error", "outcome:ragged",
    "outcome:merged", "outcome:merge-conflict",
    "outcome:several-shapes-in-one-source",
    "outcome:sources-share-a-shape", "outcome:sources-differ-in-shape",
    "outcome:both-shadowed-values-reported",
    "outcome:deeper-satellite-linked",
}


def outcome_branches(case: dict) -> set[str]:
    """Which behaviours the oracle's answer to ``case`` exhibits."""
    schema = OntologySchema(build_ontology())
    result = oracle_generate(schema, build_outcome(case),
                             case["query_class"], validate=case["validate"],
                             merge_key=case["merge_key"])
    seen = set()
    messages = [entry.message for entry in result.errors.entries]
    depth = schema.ontology.lineage
    for entity in result.entities:
        if any(satellite.links and len(depth(satellite.class_name))
               > len(depth(entity.primary.class_name))
               for satellite in entity.satellites):
            # clustered first: its link targets are not cluster indexes
            seen.add("outcome:deeper-satellite-linked")
        if "madeBy" in entity.primary.links:
            seen.add("outcome:forward-link")
        if any(satellite.links for satellite in entity.satellites):
            seen.add("outcome:reverse-link")
        if entity.coercion_errors:
            seen.add("outcome:coercion-error")
        if sum("for 'rank'" in message
               for message in entity.coercion_errors) == 2:
            seen.add("outcome:both-shadowed-values-reported")
    for flag, needle in (("unlinkable", "no object property connects"),
                         ("no-primary", "holds no attribute of class"),
                         ("ragged", "ragged record set"),
                         ("merge-conflict", "merge conflict on")):
        if any(needle in message for message in messages):
            seen.add(f"outcome:{flag}")
    per_source = [{tuple(k for k, v in record.items() if v is not None)
                   for record in record_set.align()}
                  for record_set in build_outcome(case).record_sets.values()]
    if case["merge_key"] and len(result.entities) < len(oracle_generate(
            schema, build_outcome(case), case["query_class"]).entities):
        seen.add("outcome:merged")
    if any(len(shapes) > 1 for shapes in per_source):
        seen.add("outcome:several-shapes-in-one-source")
    for index, shapes in enumerate(per_source):
        for other in per_source[index + 1:]:
            seen.add("outcome:sources-share-a-shape" if shapes & other
                     else "outcome:sources-differ-in-shape")
    return seen


def test_the_generator_drew_every_branch():
    seen: set[str] = set()
    cases = 0
    for query_kind in QUERY_CLASSES:
        for validate in (True, False):
            for seed in range(SEEDS_PER_CELL):
                case = draw_case(seed, query_kind, validate)
                cases += 1
                seen |= case["drawn"]
                if query_kind != "root":
                    seen |= outcome_branches(case)
    assert cases >= 300
    assert REQUIRED_BRANCHES - seen == set()


# ----------------------------------------------------------------------
# Exceptions that escape generate() — same type, same message
# ----------------------------------------------------------------------

def _one_record_case(columns: dict) -> dict:
    return {"query_class": "item", "validate": True, "merge_key": None,
            "problems": [], "missing": [],
            "sources": {"S": {key: [value] for key, value in columns.items()}}}


def _assert_same_escape(schema, outcome_factory, expected_type):
    generator = InstanceGenerator(schema)
    with pytest.raises(expected_type) as actual:
        generator.generate(outcome_factory(), "item")
    with pytest.raises(expected_type) as expected:
        oracle_generate(schema, outcome_factory(), "item")
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


def test_attribute_outside_the_schema_escapes_identically():
    schema = OntologySchema(build_ontology())
    case = _one_record_case({"thing.item.code": "1", "thing.item.ghost": "x"})
    _assert_same_escape(schema, lambda: build_outcome(case), OntologyError)


def test_unparseable_attribute_id_escapes_identically():
    schema = OntologySchema(build_ontology())

    def outcome():
        record_set = SourceRecordSet("S")
        record_set.add(RawFragment(AttributePath(("bad seg", "x")), "S",
                                   ["1"]))
        return ExtractionOutcome(record_sets={"S": record_set})
    _assert_same_escape(schema, outcome, MappingError)


def test_unsupported_range_escapes_identically_and_only_when_reached():
    ontology = build_ontology()
    schema = OntologySchema(ontology)
    ontology.find_attribute("item", "price").range = "duration"
    case = _one_record_case({"thing.item.code": "1", "thing.item.price": "2"})
    _assert_same_escape(schema, lambda: build_outcome(case), OntologyError)
    # a record set that never carries the broken attribute is unaffected,
    # and so is one whose records have no primary (nothing is coerced)
    for columns in ({"thing.item.code": "1"},
                    {"thing.maker.name": "Acme"}):
        untouched = _one_record_case(columns)
        actual = InstanceGenerator(schema).generate(
            build_outcome(untouched), "item")
        expected = oracle_generate(schema, build_outcome(untouched), "item")
        assert snapshot(actual) == snapshot(expected)


def test_attribute_the_specific_class_lost_escapes_identically():
    ontology = build_ontology()
    schema = OntologySchema(ontology)  # stale on purpose: no refresh()
    del ontology.require_class("item").attributes["price"]
    case = _one_record_case({"thing.item.code": "1", "thing.item.price": "2"})
    _assert_same_escape(schema, lambda: build_outcome(case), OntologyError)


# ----------------------------------------------------------------------
# The validator: table reuse, not check elision
# ----------------------------------------------------------------------

def corrupted_individuals(rng: random.Random) -> list[Individual]:
    """Individuals that trip every check ``validate_individual`` makes."""
    gadget = Individual("g", "gadget", {
        "label": "ok", "code": rng.choice(["12", "twelve", 12]),
        "price": rng.choice([1.5, "cheap"]),
        "active": rng.choice(["yes", "maybe", True]),
        "tags": rng.choice([["a", "b"], "a", []]),
        "rank": rng.choice([["1", "2"], ["x"], 3]),
        "released": rng.choice(["2006-07-04", "July 4"]),
        "seen": rng.choice(["2006-07-04T10:30:00", "noon"]),
        "colour": "undeclared"})
    maker = Individual("m", "maker", {"name": "Acme", "founded": "1881"})
    review = Individual("r", "review", {"stars": rng.choice(["5", "many"])})
    ghost = Individual("x", "ghost", {"label": "?"})
    gadget.link("madeBy", maker)
    gadget.link("madeBy", rng.choice([review, ghost, maker]))
    gadget.link("ownedBy", maker)
    review.link("aboutGadget", gadget)
    review.link("aboutGadget", rng.choice([gadget, maker]))
    review.link("about", rng.choice([gadget, maker, ghost]))
    return [gadget, maker, review, ghost]


def test_validator_reports_what_the_oracle_reports():
    ontology = build_ontology()
    shared = Reasoner(ontology)
    tripped = set()
    for seed in range(40):
        for individual in corrupted_individuals(random.Random(seed)):
            expected = oracle_validate_individual(ontology, individual)
            assert validate_individual(
                ontology, individual, reasoner=shared).problems == expected
            assert validate_individual(
                ontology, individual).problems == expected
            tripped.update(
                needle for needle in (
                    "unknown class", "undeclared attribute",
                    "functional attribute", "is not a", "is not an ISO",
                    "undeclared object property",
                    "functional object property", "targets unknown class",
                    "expected 'maker'") for problem in expected
                if needle in problem)
    assert len(tripped) == 9


# ----------------------------------------------------------------------
# Shapes that must fail validation — the plan's residual checks
# ----------------------------------------------------------------------
#
# With the stock ``OntologySchema`` a plan-built entity cannot fail
# validation: ``object_properties_between`` matches a link's range
# exactly, and a slot's coercer comes from the attribute table the
# validator reads.  A schema that links more generously can, and then
# what ``validate_individual`` said per individual must still be said —
# per record, in the same words and order — by the shape's residual.

class LenientSchema(OntologySchema):
    """Links a class to any *subclass* of a property's range."""

    def object_properties_between(self, source, target):
        lineage = self.ontology.lineage(target)
        return [prop for prop in self.ontology.all_object_properties(source)
                if prop.range in lineage]


class AnyLinkSchema(OntologySchema):
    """Links through the first property the source has, whatever its
    range."""

    def object_properties_between(self, source, target):
        return self.ontology.all_object_properties(source)


class StaleLinkSchema(OntologySchema):
    """Remembers the object properties it saw when it was built."""

    def __init__(self, ontology):
        super().__init__(ontology)
        self._between = {
            (source, target): OntologySchema.object_properties_between(
                self, source, target)
            for source in ontology.class_names()
            for target in ontology.class_names()}

    def object_properties_between(self, source, target):
        return self._between[source, target]


def _validation_case(schema, columns: dict, needle: str, per_record: int):
    """Both sides on ``columns`` (three records), not validating and
    validating; returns the validating side's ``needle`` messages."""
    case = {"query_class": "item", "merge_key": None, "problems": [],
            "missing": [], "sources": {"S": columns}}
    for validate in (False, True):
        actual = InstanceGenerator(schema, validate=validate).generate(
            build_outcome(case), "item")
        expected = oracle_generate(schema, build_outcome(case), "item",
                                   validate=validate)
        assert snapshot(actual) == snapshot(expected)
        assert len(actual.entities) == 3
        found = [entry.message for entry in actual.errors.entries
                 if needle in entry.message]
        assert len(found) == (3 * per_record if validate else 0)
    return found


def test_functional_object_property_reaching_two_satellites():
    ontology = build_ontology()
    ontology.add_class("factory", parent="maker")
    ontology.add_attribute("factory", "lines", "integer")
    ontology.add_class("workshop", parent="maker")
    ontology.add_attribute("workshop", "benches", "integer")
    ontology.require_class("item").object_properties[
        "madeBy"].functional = True
    found = _validation_case(
        LenientSchema(ontology),
        {"thing.item.code": ["1", "x", "3"],
         "thing.maker.factory.lines": ["4", "5", "6"],
         "thing.maker.workshop.benches": ["7", "8", "9"]},
        "functional object property 'madeBy' has 2 targets", 1)
    assert found[1].startswith("item_S_1: ")


def test_link_to_a_wrong_range_class():
    found = _validation_case(
        AnyLinkSchema(build_ontology()),
        {"thing.item.code": ["1", "2", "3"],
         "island.population": ["10", "many", "30"]},
        "link 'madeBy' targets 'island', expected 'maker'", 1)
    assert found[2].startswith("item_S_2: ")


def test_object_property_undeclared_through_a_stale_schema():
    """The attribute flavour of staleness — the class lost an attribute
    the schema still maps — never reaches validation: the plan cannot be
    compiled (``test_attribute_the_specific_class_lost_escapes_
    identically``).  A *link* the schema remembers and the ontology
    dropped does."""
    ontology = build_ontology()
    schema = StaleLinkSchema(ontology)
    del ontology.require_class("item").object_properties["madeBy"]
    _validation_case(
        schema,
        {"thing.item.code": ["1", "2", "3"],
         "thing.maker.name": ["Acme", "Zenith", "Acme"]},
        "undeclared object property 'madeBy' for class 'item'", 1)


def test_residual_problems_interleave_with_coercion_errors_per_record():
    """Per record: its coercion errors, then what validation says about
    its primary, then about its satellites — not grouped by kind."""
    case = {"query_class": "item", "merge_key": None, "problems": [],
            "missing": [], "sources": {"S": {
                "thing.item.code": ["x", "2"],
                "island.population": ["10", "many"]}}}
    schema = AnyLinkSchema(build_ontology())
    actual = InstanceGenerator(schema).generate(build_outcome(case), "item")
    assert snapshot(actual) == snapshot(
        oracle_generate(schema, build_outcome(case), "item"))
    assert [entry.message for entry in actual.errors.entries] == [
        "value 'x' is not a valid integer for 'code'",
        "item_S_0: link 'madeBy' targets 'island', expected 'maker'",
        "value 'many' is not a valid integer for 'population'",
        "item_S_1: link 'madeBy' targets 'island', expected 'maker'"]
