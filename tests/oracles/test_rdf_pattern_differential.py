"""Differential test: the shape-pattern RDF path against frozen 2.26.

Since 2.27 every entity-to-triples path draws its vocabulary from one
:class:`~repro.ontology.owlxml.Vocabulary` per call or slice index: a
class, predicate or subject is minted once, typed literals share the
module's XSD datatype IRIs, and ``render_entities`` writes ``owl``,
``turtle`` and ``ntriples`` text from the patterns with no graph.
Release 2.26 minted every term per triple and wrote the text from
``entities_to_graph``; that path is kept in
:mod:`tests.oracles.rdf_triples_2_26`.

The answers are the generation differential's seeded extraction
outcomes (all four query classes, validation on and off, merged and
not), generated by the library.  For each answer:

* the three RDF texts equal the frozen path's byte for byte, or both
  raise the same error;
* ``entities_to_graph`` holds the frozen graph's triples;
* stored one slice per source, every slice index holds the frozen
  ``entity_triples`` in order, and ``store.export`` and a set of SPARQL
  queries over ``store.graph`` equal the frozen triples' export and
  answers.

``S2S_DIFF_SEED`` picks the answers (CI runs a second value).  The unit
tests at the end pin the hazards of sharing: literals that are equal as
Python values but not as RDF, and the identity of the shared terms.
"""

from __future__ import annotations

import copy
import os
from datetime import datetime, timedelta, timezone

import pytest

from repro.core.instances import InstanceGenerator
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.outputs import entities_to_graph, render_entities
from repro.core.store.store import SemanticStore, SliceWrite
from repro.core.store.view import SliceIndex, StoreGraph, entity_triples
from repro.errors import S2SError
from repro.ids import AttributePath
from repro.ontology import OntologySchema
from repro.ontology.model import Individual
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.sparql import execute_sparql
from repro.rdf.terms import (XSD_BOOLEAN, XSD_DATE, XSD_DATE_TIME, XSD_DOUBLE,
                             XSD_INTEGER, Literal)
from tests.core.test_generation_differential import (QUERY_CLASSES,
                                                     build_ontology,
                                                     build_outcome, draw_case)
from tests.oracles import rdf_triples_2_26 as frozen

SEED = int(os.environ.get("S2S_DIFF_SEED", "27"))
CASES_PER_CLASS = 12
FORMATS = ("owl", "turtle", "ntriples")
XSD = (XSD_BOOLEAN, XSD_DATE, XSD_DATE_TIME, XSD_DOUBLE, XSD_INTEGER)
STORE_NS = "http://example.org/s2s/ontology#"
SPARQL = [
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "PREFIX store: <http://example.org/s2s/store#> "
    "SELECT ?s ?src ?n WHERE { ?s store:source ?src . "
    "?s store:recordIndex ?n }",
    f"PREFIX o: <{STORE_NS}> SELECT ?s ?c WHERE {{ ?s a ?c }} ORDER BY ?s",
    f"PREFIX o: <{STORE_NS}> SELECT ?s ?v WHERE {{ ?s o:code ?v }}",
    f"PREFIX o: <{STORE_NS}> SELECT ?s ?t WHERE {{ ?s o:maker ?t . "
    "?t o:name ?n }",
    "PREFIX store: <http://example.org/s2s/store#> "
    "SELECT DISTINCT ?c WHERE { ?s store:entityClass ?c }",
]


def outcome_of(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except S2SError as exc:
        return type(exc), str(exc)


def varied(entities: list, index: int) -> list:
    """A copy of a generated answer with what generation never makes:
    multi-valued attributes holding a repeat and values of two types,
    attributes named like a link, empty lists, predicates whose IRI and
    N-Triples orders differ, links to individuals outside the entity,
    primaries that share an identifier but not their values, and (once
    per class) an identifier that is no IRI."""
    entities = copy.deepcopy(entities)
    for number, entity in enumerate(entities):
        for individual in entity.all_individuals():
            values = individual.values
            if index % 3 == 0 and values:
                name = list(values)[0]
                values[name + "2"] = values[name]
                values.setdefault("tags", [])
            if index % 3 == 1 and values:
                name = list(values)[-1]
                values[name] = [values[name], str(values[name]), values[name]]
                individual.values = {**{link: "ACME" for link in
                                        individual.links}, **values}
            if index % 3 == 2:
                individual.link("maker", Individual(
                    f"outsider_{number % 2}", "maker", {"name": f"{number}"}))
        if index % 3 == 2 and number % 2:
            entity.primary.identifier = entities[number - 1].primary.identifier
    if index == CASES_PER_CLASS - 1 and entities:
        entities[-1].primary.identifier += " no-iri"
    return entities


def answers():
    """(case id, schema, query class, entities): the seeded answers."""
    for query_kind, query_class in QUERY_CLASSES.items():
        for index in range(CASES_PER_CLASS):
            validate = index % 2 == 0
            case = draw_case(SEED * 1000 + index, query_kind, validate)
            schema = OntologySchema(build_ontology())
            entities = InstanceGenerator(schema, validate=validate).generate(
                build_outcome(case), query_class,
                merge_key=case["merge_key"]).entities
            yield (f"{query_kind}-{index}", schema, query_class,
                   varied(entities, index))


ANSWERS = list(answers())


@pytest.mark.parametrize("case", ANSWERS, ids=[case[0] for case in ANSWERS])
def test_rdf_texts_and_graph_match_the_frozen_path(case):
    _name, schema, _query_class, entities = case
    for format in FORMATS:
        assert outcome_of(lambda: render_entities(schema, entities, format)) \
            == outcome_of(lambda: frozen.render_entities_2_26(
                schema, entities, format)), format
    graph = outcome_of(lambda: set(entities_to_graph(schema, entities)))
    assert graph == outcome_of(
        lambda: set(frozen.entities_to_graph(schema, entities)))


def stored(query_class, entities) -> SemanticStore:
    """A store holding the answer, one slice per source."""
    store = SemanticStore(namespace=STORE_NS)
    mat = store.ensure(query_class, [AttributePath.parse("thing.label")])
    by_source: dict[str, list] = {}
    for entity in entities:
        by_source.setdefault(entity.source_id, []).append(entity)
    store.commit(mat.key, [SliceWrite(source_id, slice_entities, "f")
                           for source_id, slice_entities in by_source.items()],
                 [])
    return store


def frozen_export(triples, format: str) -> str:
    graph = Graph()
    graph.namespace_manager.bind("s2s", Namespace(STORE_NS))
    graph.namespace_manager.bind("store", frozen.STORE)
    graph.update(triples)
    if format == "turtle":
        return frozen.serialize_turtle(graph)
    return frozen.serialize_ntriples(graph)


@pytest.mark.parametrize("case", ANSWERS, ids=[case[0] for case in ANSWERS])
def test_the_store_index_matches_the_frozen_path(case):
    _name, _schema, query_class, entities = case
    store = stored(query_class, entities)
    namespace = Namespace(STORE_NS)
    (mat,) = store.materializations()
    indexes, expected_indexes = [], []
    for source_id in sorted(mat.slices):
        slice_ = mat.slices[source_id]
        built = outcome_of(lambda: slice_.index(namespace, query_class))
        expected = outcome_of(lambda: list(frozen.entity_triples(
            namespace, query_class, slice_.entities)))
        if isinstance(expected, tuple):
            assert built == expected
            return
        assert list(entity_triples(namespace, query_class,
                                   slice_.entities)) == expected
        reference = SliceIndex(expected)
        assert list(built.by_subject.items()) \
            == list(reference.by_subject.items())
        assert list(built.by_predicate.items()) \
            == list(reference.by_predicate.items())
        indexes.append(built)
        expected_indexes.append(reference)
    expected_triples = list(StoreGraph(expected_indexes))
    assert list(store.graph) == expected_triples
    for format in ("turtle", "ntriples"):
        assert store.export(format) == frozen_export(expected_triples, format)
    for query in SPARQL:
        actual = execute_sparql(store.graph, query)
        expected = execute_sparql(StoreGraph(expected_indexes), query)
        assert (actual.variables, actual.rows) \
            == (expected.variables, expected.rows), query


def test_the_differential_covers_values_links_and_errors():
    """The seeded answers reach typed literals of every datatype, lists,
    links and the error path (an identifier that is no IRI)."""
    datatypes, lists, links, errors = set(), False, False, 0
    for _name, schema, _query_class, entities in ANSWERS:
        try:
            graph = frozen.entities_to_graph(schema, entities)
        except S2SError:
            errors += 1
            continue
        for triple in graph:
            if isinstance(triple.object, Literal) and triple.object.datatype:
                datatypes.add(triple.object.datatype.local_name)
        for entity in entities:
            for individual in entity.all_individuals():
                lists = lists or any(isinstance(value, list)
                                     for value in individual.values.values())
                links = links or bool(individual.links)
    assert datatypes == {"boolean", "date", "dateTime", "double", "integer"}
    assert lists and links and errors


# -- the hazards of sharing --------------------------------------------------

UTC = timezone.utc
PLUS_TWO = timezone(timedelta(hours=2))


def hazard_entities() -> list[AssembledEntity]:
    """Values equal in Python but not in RDF, a list with a repeat, an
    empty list, links to an individual outside the entity and to nobody,
    predicates whose IRI order and N-Triples order differ (``code`` and
    ``code2``), an attribute and a link of one name, and one identifier
    on two individuals that differ (the first one is written)."""
    outsider = Individual("outsider", "maker", {"name": "Far"})
    maker = Individual("m1", "maker", {"name": "Near"})
    impostor = Individual("m1", "maker", {"name": "Other", "founded": 1})
    first = Individual("g1", "gadget", {
        "seen": datetime(2006, 7, 4, 12, 0, tzinfo=UTC),
        "code": 1, "code2": 2, "price": 1.0, "active": True,
        "tags": ["a", "a", "b"]},
        {"maker": [maker, outsider]})
    second = Individual("g2", "gadget", {
        "seen": datetime(2006, 7, 4, 14, 0, tzinfo=PLUS_TWO),
        "code": True, "maker": "ACME", "price": 1, "active": 1.0,
        "tags": ["b", 1, 1.0]},
        {"maker": [impostor]})
    third = Individual("g3", "gadget", {"code": 3, "tags": []},
                       {"maker": []})
    return [AssembledEntity(first, [maker], "S1", 0),
            AssembledEntity(second, [impostor], "S1", 1),
            AssembledEntity(third, [], "S1", 2)]


def test_equal_python_values_stay_apart():
    schema = OntologySchema(build_ontology())
    entities = hazard_entities()
    for format in FORMATS:
        assert render_entities(schema, entities, format) \
            == frozen.render_entities_2_26(schema, entities, format), format
    namespace = Namespace(STORE_NS)
    assert list(entity_triples(namespace, "gadget", entities)) \
        == list(frozen.entity_triples(namespace, "gadget", entities))
    index = SliceIndex(entity_triples(namespace, "gadget", entities))
    seen = {triple.object.n3() for triple in index.by_predicate[
        STORE_NS + "seen"]}
    assert seen == {'"2006-07-04T12:00:00+00:00"^^<http://www.w3.org/2001/'
                    'XMLSchema#dateTime>',
                    '"2006-07-04T14:00:00+02:00"^^<http://www.w3.org/2001/'
                    'XMLSchema#dateTime>'}


def test_one_slice_index_shares_its_vocabulary():
    """Within one index every triple naming a predicate text names one
    ``IRI`` object, a subject is one object wherever it appears, and a
    typed literal's datatype is the module's XSD IRI."""
    namespace = Namespace(STORE_NS)
    entities = hazard_entities()
    index = SliceIndex(entity_triples(namespace, "gadget", entities))
    triples = [triple for found in index.by_subject.values()
               for triple in found]
    for text, found in index.by_predicate.items():
        assert len({id(triple.predicate) for triple in found}) == 1, text
    terms: dict[str, set[int]] = {}
    for triple in triples:
        for term in (triple.subject, triple.object):
            if not isinstance(term, Literal):
                terms.setdefault(term.value, set()).add(id(term))
        if isinstance(triple.object, Literal) and triple.object.datatype:
            assert any(triple.object.datatype is xsd for xsd in XSD)
    assert all(len(ids) == 1 for ids in terms.values()), terms
    sources = {id(triple.object) for triple in index.by_predicate[
        "http://example.org/s2s/store#source"]}
    assert len(sources) == 1
