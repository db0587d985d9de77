"""The mechanism behind shape-compiled generation, as exact counts.

Schema work (``lineage`` walks, attribute lookups, path resolution and
parsing) must be done once per record *shape*, never once per record:
the counts for a homogeneous record set are equal at 10 and at 1 000
records.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.extractor.manager import ExtractionOutcome
from repro.core.extractor.records import RawFragment, SourceRecordSet
from repro.core.instances import InstanceGenerator
from repro.ids import AttributePath
from repro.ontology import Ontology, OntologySchema, Reasoner

COLUMNS = {
    "thing.product.brand": "Seiko",
    "thing.product.model": "SKX007",
    "thing.product.price": "199.5",
    "thing.product.watch.case": "steel",
    "thing.product.watch.water_resistance": "200",
    "thing.provider.name": "Acme",
    "thing.provider.country": "PT",
}


def homogeneous_outcome(n_records: int, holes: dict | None = None):
    """``n_records`` identical records; ``holes`` maps an attribute id to
    the record indexes whose value is ``None``."""
    record_set = SourceRecordSet("S")
    for attribute_id, value in COLUMNS.items():
        values = [value] * n_records
        for index in (holes or {}).get(attribute_id, ()):
            values[index] = None
        record_set.add(RawFragment(AttributePath.parse(attribute_id), "S",
                                   values))
    return ExtractionOutcome(record_sets={"S": record_set})


@pytest.fixture
def schema_calls(monkeypatch):
    """Call counts of the schema lookups generation used to repeat."""
    counts: dict[str, int] = {}

    def counted(owner, name):
        original = getattr(owner, name)
        label = f"{owner.__name__}.{name}"
        counts[label] = 0

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)
        # a classmethod arrives already bound to its class
        monkeypatch.setattr(owner, name, staticmethod(wrapper)
                            if inspect.ismethod(original) else wrapper)

    counted(Ontology, "lineage")
    counted(Ontology, "find_attribute")
    counted(OntologySchema, "resolve")
    counted(AttributePath, "parse")
    counted(Reasoner, "__init__")
    return counts


@pytest.mark.parametrize("validate", [True, False])
def test_schema_work_is_per_shape_not_per_record(schema, schema_calls,
                                                 validate):
    generator = InstanceGenerator(schema, validate=validate)
    observed = []
    for n_records in (10, 1000):
        outcome = homogeneous_outcome(n_records)  # parses ids: not counted
        for label in schema_calls:
            schema_calls[label] = 0
        result = generator.generate(outcome, "product")
        assert len(result.entities) == n_records
        assert result.errors.ok
        observed.append(dict(schema_calls))
    assert observed[0] == observed[1]
    assert observed[0]["Reasoner.__init__"] == 1
    assert observed[0]["AttributePath.parse"] == len(COLUMNS)
    assert observed[0]["OntologySchema.resolve"] == len(COLUMNS)


def test_shapes_counts_distinct_null_masks(schema):
    generator = InstanceGenerator(schema)
    assert generator.generate(homogeneous_outcome(6), "product").shapes == 1
    sparse = homogeneous_outcome(6, holes={
        "thing.product.model": [1, 4], "thing.provider.country": [4]})
    result = generator.generate(sparse, "product")
    assert result.shapes == 3  # full, no model, no model + no country
    assert len(result.entities) == 6
    assert "model" not in result.entities[1].primary.values


def test_plans_compile_lazily_per_shape(ontology):
    """A shape's error is reported when a record of that shape arrives —
    not earlier, not for other shapes, and again for the next such
    record."""
    ontology.add_class("island")
    ontology.add_attribute("island", "population", "integer")
    generator = InstanceGenerator(OntologySchema(ontology))

    def outcome(populations):
        record_set = SourceRecordSet("S")
        for attribute_id, values in (
                ("thing.product.brand", ["Seiko"] * len(populations)),
                ("island.population", populations)):
            record_set.add(RawFragment(AttributePath.parse(attribute_id),
                                       "S", values))
        return ExtractionOutcome(record_sets={"S": record_set})

    fine = generator.generate(outcome([None]), "product")
    assert fine.entities and fine.errors.ok
    assert fine.shapes == 1
    result = generator.generate(outcome([None, "5", "5", None]), "product")
    stranded = result.errors.by_phase("generation")
    assert len(stranded) == 2
    assert all("island" in entry.message for entry in stranded)
    assert result.shapes == 2
    assert [entity.record_index for entity in result.entities] == [0, 3]
    assert result.entities[1].primary.identifier == "product_S_3"
