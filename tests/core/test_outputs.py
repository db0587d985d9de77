"""Tests for the Instance Generator's output adapters."""

import datetime
import json

import pytest

from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.outputs import render_entities
from repro.errors import InstanceGenerationError, S2SError
from repro.ontology import OntologySchema
from repro.ontology.builders import logistics_ontology
from repro.ontology.model import Individual
from repro.rdf.rdfxml import parse_rdfxml
from repro.rdf.turtle import parse_turtle
from repro.workloads import B2BScenario
from repro.xmlkit import parse_xml


@pytest.fixture
def entities(middleware):
    result = middleware.query('SELECT product WHERE case = "stainless-steel"')
    assert len(result) > 0
    return middleware.schema, result.entities


class TestOwlOutput:
    def test_parses_as_rdfxml(self, entities):
        schema, items = entities
        graph = parse_rdfxml(render_entities(schema, items, "owl"))
        assert len(graph) > 0

    def test_individual_typed_by_class(self, entities):
        schema, items = entities
        graph = parse_rdfxml(render_entities(schema, items, "owl"))
        from repro.rdf.namespace import Namespace
        ns = Namespace(schema.ontology.base_iri)
        watches = list(graph.instances_of(ns.watch))
        assert len(watches) == len(items)

    def test_provider_links_present(self, entities):
        schema, items = entities
        graph = parse_rdfxml(render_entities(schema, items, "owl"))
        from repro.rdf.namespace import Namespace
        ns = Namespace(schema.ontology.base_iri)
        links = list(graph.triples(None, ns.hasProvider, None))
        assert len(links) == len(items)

    def test_typed_literals(self, entities):
        schema, items = entities
        text = render_entities(schema, items, "owl")
        assert "XMLSchema#double" in text


class TestOtherFormats:
    def test_turtle_parses(self, entities):
        schema, items = entities
        graph = parse_turtle(render_entities(schema, items, "turtle"))
        assert len(graph) > 0

    def test_turtle_owl_agree(self, entities):
        schema, items = entities
        turtle_graph = parse_turtle(render_entities(schema, items, "turtle"))
        owl_graph = parse_rdfxml(render_entities(schema, items, "owl"))
        assert (turtle_graph.isomorphic_signature()
                == owl_graph.isomorphic_signature())

    def test_xml_structure_mirrors_ontology(self, entities):
        schema, items = entities
        doc = parse_xml(render_entities(schema, items, "xml"))
        assert doc.root.name == "results"
        assert doc.root.get("count") == str(len(items))
        first = doc.root.element_children()[0]
        assert first.name == "watch"
        assert first.find("brand") is not None
        assert first.find("hasProvider") is not None

    def test_json_records(self, entities):
        schema, items = entities
        records = json.loads(render_entities(schema, items, "json"))
        assert len(records) == len(items)
        assert records[0]["class"] == "watch"
        assert "_source" in records[0]
        assert isinstance(records[0]["hasProvider"], list)

    def test_text_listing(self, entities):
        schema, items = entities
        text = render_entities(schema, items, "text")
        assert "watch [" in text
        assert "-> provider" in text
        assert "case = stainless-steel" in text

    def test_empty_entities(self, entities):
        schema, _items = entities
        assert render_entities(schema, [], "text") == ""
        records = json.loads(render_entities(schema, [], "json"))
        assert records == []

    def test_unknown_format_rejected(self, entities):
        schema, items = entities
        with pytest.raises(InstanceGenerationError):
            render_entities(schema, items, "yaml")

    def test_json_renders_dates_as_the_other_formats_do(self):
        """``ship_date`` has range ``date``: ``json`` used to let a bare
        ``TypeError`` escape where ``xml`` and ``text`` print ISO text."""
        schema = OntologySchema(logistics_ontology())
        shipment = Individual("s1", "shipment", {
            "tracking_id": "TRK-001",
            "ship_date": datetime.date(2006, 7, 1),
            "scans": [datetime.datetime(2006, 7, 1, 8, 30)]})
        items = [AssembledEntity(shipment, [], "TMS_DB", 0)]
        record, = json.loads(render_entities(schema, items, "json"))
        assert record["ship_date"] == "2006-07-01"
        assert record["scans"] == ["2006-07-01 08:30:00"]
        assert "ship_date = 2006-07-01" in render_entities(schema, items,
                                                           "text")
        xml = parse_xml(render_entities(schema, items, "xml"))
        assert xml.root.element_children()[0].find("scans").text == \
            record["scans"][0]


class TestQueryResultSerialize:
    def test_serialize_delegates(self, middleware):
        result = middleware.query("SELECT provider")
        for format in middleware.output_formats():
            rendered = result.serialize(format)
            assert isinstance(rendered, str)


class TestOutputFormats:
    def test_output_formats_match_serialize(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        formats = s2s.output_formats()
        assert formats  # non-empty, stable tuple
        for format_name in formats:
            rendered = result.serialize(format_name)
            assert isinstance(rendered, str) and rendered

    def test_unknown_format_rejected(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        assert "yaml" not in s2s.output_formats()
        with pytest.raises(S2SError):
            result.serialize("yaml")
