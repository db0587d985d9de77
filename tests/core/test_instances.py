"""Tests for record assembly and instance generation (paper section 2.6)."""

import pytest

from repro.core.extractor.manager import ExtractionOutcome, ExtractionProblem
from repro.core.extractor.records import RawFragment, SourceRecordSet
from repro.core.instances import InstanceGenerator
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.codec import entities_to_wire
from repro.core.instances.errors import ErrorReport
from repro.ids import AttributePath
from repro.ontology.model import Individual


def record_set(source_id, columns):
    rs = SourceRecordSet(source_id)
    for attribute_id, values in columns.items():
        rs.add(RawFragment(AttributePath.parse(attribute_id), source_id,
                           values))
    return rs


def generate_one(schema, record, *, query_class="product", source_id="S",
                 record_index=0):
    """``record`` (attribute id -> raw value, ``None`` for none) as record
    ``record_index`` of one source (any records before it empty), through
    ``InstanceGenerator.generate``: its entity or None, and the result."""
    columns = {attribute_id: [None] * record_index + [raw]
               for attribute_id, raw in record.items()}
    outcome = ExtractionOutcome(
        record_sets={source_id: record_set(source_id, columns)})
    result = InstanceGenerator(schema).generate(outcome, query_class)
    entity = next((entity for entity in result.entities
                   if entity.record_index == record_index), None)
    return entity, result


class TestAssembler:
    def test_single_class_record(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko", "thing.product.price": "199"})
        assert entity.primary.class_name == "product"
        assert entity.primary.values == {"brand": "Seiko", "price": 199.0}
        assert entity.satellites == []

    def test_subclass_chain_merges_to_most_specific(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko",
             "thing.product.watch.case": "steel"})
        assert entity.primary.class_name == "watch"
        assert entity.primary.values == {"brand": "Seiko", "case": "steel"}

    def test_satellite_linked_through_object_property(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko",
             "thing.provider.name": "Acme"})
        assert len(entity.satellites) == 1
        provider = entity.satellites[0]
        assert provider.class_name == "provider"
        assert entity.primary.links["hasProvider"] == [provider]

    def test_identifiers_deterministic_and_sanitized(self, schema):
        entity, _ = generate_one(
            schema, {"thing.product.brand": "Seiko"},
            source_id="db-1/x", record_index=3)
        assert entity.primary.identifier == "product_db_1_x_3"

    def test_record_without_query_class_returns_none(self, schema):
        entity, _ = generate_one(
            schema, {"thing.product.brand": "Seiko"},
            query_class="provider")
        assert entity is None

    def test_none_values_skipped(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko", "thing.product.model": None})
        assert "model" not in entity.primary.values

    def test_coercion_errors_collected_not_fatal(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko",
             "thing.product.price": "not-a-number"})
        assert entity.coercion_errors
        assert "price" not in entity.primary.values

    def test_unlinkable_satellite_is_reported(self, ontology):
        from repro.ontology import OntologySchema
        ontology.add_class("island")
        ontology.add_attribute("island", "population", "integer")
        schema = OntologySchema(ontology)
        entity, result = generate_one(
            schema,
            {"thing.product.brand": "Seiko",
             "island.population": "5"})
        assert entity is None
        assert [entry.message for entry in result.errors.by_phase(
            "generation")] == ["no object property connects 'product' "
                               "and 'island'; cannot assemble record"]

    def test_entity_value_lookup_spans_satellites(self, schema):
        entity, _ = generate_one(
            schema,
            {"thing.product.brand": "Seiko",
             "thing.provider.name": "Acme"})
        assert entity.value("name") == "Acme"
        assert entity.value("brand") == "Seiko"
        assert entity.value("missing", "dflt") == "dflt"


class TestGenerator:
    def test_generates_per_record(self, schema):
        outcome = ExtractionOutcome(record_sets={
            "S": record_set("S", {
                "thing.product.brand": ["Seiko", "Casio"],
                "thing.product.price": ["199", "15.5"],
            })})
        result = InstanceGenerator(schema).generate(outcome, "product")
        assert len(result.entities) == 2
        assert result.errors.ok

    def test_extraction_problems_forwarded_to_error_channel(self, schema):
        outcome = ExtractionOutcome(
            problems=[ExtractionProblem("S", "a.b", "boom")])
        result = InstanceGenerator(schema).generate(outcome, "product")
        assert len(result.errors.by_phase("extraction")) == 1

    def test_missing_attributes_reported_as_mapping_errors(self, schema):
        outcome = ExtractionOutcome(
            missing_attributes=[AttributePath.parse("thing.product.model")])
        result = InstanceGenerator(schema).generate(outcome, "product")
        assert len(result.errors.by_phase("mapping")) == 1

    def test_ragged_record_set_reported(self, schema):
        outcome = ExtractionOutcome(record_sets={
            "S": record_set("S", {
                "thing.product.brand": ["Seiko", "Casio"],
                "thing.product.price": ["199"],
            })})
        result = InstanceGenerator(schema).generate(outcome, "product")
        assert any("ragged" in str(e) for e in result.errors.entries)
        assert len(result.entities) == 2

    def test_irrelevant_record_reported(self, schema):
        outcome = ExtractionOutcome(record_sets={
            "S": record_set("S", {"thing.provider.name": ["Acme"]})})
        result = InstanceGenerator(schema).generate(outcome, "product")
        assert result.entities == []
        assert len(result.errors.by_phase("generation")) == 1

    def test_validation_toggle(self, schema):
        outcome = ExtractionOutcome(record_sets={
            "S": record_set("S", {"thing.product.brand": ["Seiko"]})})
        validated = InstanceGenerator(schema, validate=True).generate(
            outcome, "product")
        unvalidated = InstanceGenerator(schema, validate=False).generate(
            outcome, "product")
        assert len(validated.entities) == len(unvalidated.entities) == 1


class TestMergeKey:
    def _outcome(self):
        return ExtractionOutcome(record_sets={
            "A": record_set("A", {
                "thing.product.brand": ["Seiko", "Casio"],
                "thing.product.model": ["SKX007", "F91W"],
                "thing.product.price": ["199", "15.5"],
            }),
            "B": record_set("B", {
                "thing.product.brand": ["Seiko"],
                "thing.product.model": ["SKX007"],
                "thing.product.watch.case": ["steel"],
            }),
        })

    def test_merge_by_key(self, schema):
        result = InstanceGenerator(schema).generate(
            self._outcome(), "product", merge_key=["brand", "model"])
        assert len(result.entities) == 2
        merged = [e for e in result.entities
                  if e.value("model") == "SKX007"][0]
        # values from both sources combined
        assert merged.value("price") == 199.0
        assert merged.value("case") == "steel"

    def test_no_merge_without_key(self, schema):
        result = InstanceGenerator(schema).generate(self._outcome(),
                                                    "product")
        assert len(result.entities) == 3

    def test_merge_conflict_reported(self, schema):
        outcome = self._outcome()
        outcome.record_sets["B"] = record_set("B", {
            "thing.product.brand": ["Seiko"],
            "thing.product.model": ["SKX007"],
            "thing.product.price": ["500"],  # conflicts with A's 199
        })
        result = InstanceGenerator(schema).generate(
            outcome, "product", merge_key=["brand", "model"])
        assert any("merge conflict" in str(e)
                   for e in result.errors.entries)
        merged = [e for e in result.entities
                  if e.value("model") == "SKX007"][0]
        assert merged.value("price") == 199.0  # first wins

    @pytest.mark.parametrize("stored", [False, True])
    def test_merge_copies_what_it_changes_and_edits_nothing(self, stored):
        def entity(source_id, values, provider=None):
            primary = Individual(f"w_{source_id}", "watch", values)
            satellites = []
            if provider is not None:
                satellites.append(Individual(f"p_{source_id}", "provider",
                                             {"name": provider}))
                primary.link("hasProvider", satellites[0])
            built = AssembledEntity(primary, satellites, source_id, 0, [])
            return built.freeze() if stored else built

        key = {"brand": "Seiko", "model": "SKX007"}
        first = entity("A", dict(key), provider="Acme")
        filler = entity("B", {**key, "price": 199.0})
        adopter = entity("C", dict(key), provider="Zenith")
        bare = entity("D", dict(key))
        inputs = [first, filler, adopter, bare]
        before = entities_to_wire(inputs)
        errors = ErrorReport()

        merged, = InstanceGenerator._merge([first, filler], ["brand", "model"],
                                           errors)
        assert merged is not first
        assert merged.value("price") == 199.0
        provider, = merged.satellites
        assert merged.primary.links["hasProvider"] == [provider]
        (template,), _rows = entities_to_wire([merged])
        assert template[0][2] == {"hasProvider": [1]}
        adopted, = InstanceGenerator._merge([bare, adopter],
                                            ["brand", "model"], errors)
        assert [s.identifier for s in adopted.satellites] == ["p_C"]
        kept, = InstanceGenerator._merge([first, adopter],
                                         ["brand", "model"], errors)
        assert kept is first  # nothing gained: no copy
        assert entities_to_wire(inputs) == before

    def test_entities_missing_key_not_merged(self, schema):
        outcome = ExtractionOutcome(record_sets={
            "A": record_set("A", {"thing.product.brand": ["X", "X"]})})
        result = InstanceGenerator(schema).generate(
            outcome, "product", merge_key=["brand", "model"])
        assert len(result.entities) == 2  # no model → no merging


class TestErrorReport:
    def test_summary_counts_by_phase(self):
        report = ErrorReport()
        report.add("extraction", "a", source_id="S")
        report.add("extraction", "b")
        report.add("query", "c")
        assert "2 extraction" in report.summary()
        assert "1 query" in report.summary()
        assert len(report) == 3

    def test_ok_and_empty_summary(self):
        report = ErrorReport()
        assert report.ok
        assert report.summary() == "no errors"

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            ErrorReport().add("cooking", "x")

    def test_entry_rendering(self):
        report = ErrorReport()
        report.add("extraction", "boom", source_id="S",
                   attribute_id="a.b")
        text = str(report.entries[0])
        assert "source=S" in text and "attribute=a.b" in text
