"""Tests for extraction schemas, records, extractors and the manager."""

from types import SimpleNamespace

import pytest

from repro.core.extractor import (DatabaseExtractor, ExtractionSchema,
                                  ExtractorManager, ExtractorRegistry,
                                  RawFragment, SourceRecordSet, WebExtractor)
from repro.core.mapping import (AttributeRepository, DataSourceRepository,
                                MappingEntry)
from repro.core.mapping.rules import ExtractionRule
from repro.errors import ExtractionError
from repro.ids import AttributePath
from repro.sources.relational import RelationalDataSource


def sql_entry(attribute, code, source_id="DB_1"):
    return MappingEntry(AttributePath.parse(attribute),
                        ExtractionRule("sql", code), source_id)


@pytest.fixture
def repos(watch_db):
    attributes = AttributeRepository()
    sources = DataSourceRepository()
    sources.register(RelationalDataSource("DB_1", watch_db))
    attributes.add(sql_entry("thing.product.brand",
                             "SELECT brand FROM watches"))
    attributes.add(sql_entry("thing.product.model",
                             "SELECT model FROM watches"))
    attributes.add(sql_entry("thing.product.watch.case",
                             "SELECT casing FROM watches"))
    return attributes, sources


class TestExtractionSchema:
    def test_groups_by_source(self, repos):
        attributes, _sources = repos
        schema = ExtractionSchema.build(attributes, [
            AttributePath.parse("thing.product.brand"),
            AttributePath.parse("thing.product.model"),
        ])
        assert schema.source_ids() == ["DB_1"]
        assert schema.entry_count() == 2

    def test_missing_attributes_recorded(self, repos):
        attributes, _sources = repos
        schema = ExtractionSchema.build(attributes, [
            AttributePath.parse("thing.product.brand"),
            AttributePath.parse("thing.provider.name"),  # unmapped
        ])
        assert [str(p) for p in schema.missing] == ["thing.provider.name"]
        assert bool(schema)

    def test_empty_schema_falsy(self, repos):
        attributes, _sources = repos
        schema = ExtractionSchema.build(attributes, [
            AttributePath.parse("thing.provider.name")])
        assert not schema


class TestRecords:
    def test_alignment(self):
        record_set = SourceRecordSet("S")
        record_set.add(RawFragment(AttributePath.parse("t.a"), "S",
                                   ["1", "2"]))
        record_set.add(RawFragment(AttributePath.parse("t.b"), "S",
                                   ["x", "y"]))
        records = record_set.align()
        assert records == [{"t.a": "1", "t.b": "x"},
                           {"t.a": "2", "t.b": "y"}]
        assert not record_set.ragged

    def test_ragged_padding(self):
        record_set = SourceRecordSet("S")
        record_set.add(RawFragment(AttributePath.parse("t.a"), "S",
                                   ["1", "2", "3"]))
        record_set.add(RawFragment(AttributePath.parse("t.b"), "S", ["x"]))
        records = record_set.align()
        assert record_set.ragged
        assert records[2] == {"t.a": "3", "t.b": None}

    def test_ragged_does_not_wait_for_align(self):
        """``ragged`` used to be set by ``align()`` as a side effect: a
        reader that checked it first saw a ragged set as clean."""
        record_set = SourceRecordSet("S")
        assert not record_set.ragged  # no fragments yet
        record_set.add(RawFragment(AttributePath.parse("t.a"), "S",
                                   ["1", "2", "3"]))
        assert not record_set.ragged
        record_set.add(RawFragment(AttributePath.parse("t.b"), "S", ["x"]))
        assert record_set.ragged  # before any align()
        assert len(record_set.align()) == 3
        assert record_set.ragged  # and after
        record_set.fragments[1].values.extend(["y", "z"])
        assert not record_set.ragged  # derived, so it follows the data

    def test_wrong_source_rejected(self):
        record_set = SourceRecordSet("S")
        with pytest.raises(ValueError):
            record_set.add(RawFragment(AttributePath.parse("t.a"),
                                       "OTHER", []))

    def test_single_record_scenario(self):
        record_set = SourceRecordSet("S")
        record_set.add(RawFragment(AttributePath.parse("t.a"), "S", ["1"]))
        assert record_set.record_count == 1

    def test_empty_record_set(self):
        record_set = SourceRecordSet("S")
        assert record_set.record_count == 0
        assert record_set.align() == []


class TestExtractors:
    def test_type_mismatch_rejected(self, repos, watch_db):
        extractor = WebExtractor()
        source = RelationalDataSource("DB_1", watch_db)
        with pytest.raises(ExtractionError):
            extractor.extract(source, sql_entry("thing.product.brand",
                                                "SELECT brand FROM watches"))

    def test_database_extractor(self, watch_db):
        extractor = DatabaseExtractor()
        source = RelationalDataSource("DB_1", watch_db)
        fragment = extractor.extract(
            source, sql_entry("thing.product.brand",
                              "SELECT brand FROM watches"))
        assert fragment.values == ["Seiko", "Casio", "Seiko"]

    def test_transform_applied(self, watch_db):
        extractor = DatabaseExtractor()
        source = RelationalDataSource("DB_1", watch_db)
        entry = MappingEntry(
            AttributePath.parse("thing.product.price"),
            ExtractionRule("sql", "SELECT price_cents FROM watches",
                           transform="cents_to_units"), "DB_1")
        fragment = extractor.extract(source, entry)
        assert fragment.values == ["199", "15.5", "89"]

    def test_registry_dispatch(self, watch_db):
        registry = ExtractorRegistry()
        source = RelationalDataSource("DB_1", watch_db)
        assert isinstance(registry.for_source(source), DatabaseExtractor)

    def test_registry_default_types(self):
        registry = ExtractorRegistry()
        for source_type in ("database", "textfile", "webpage", "xml"):
            source = SimpleNamespace(source_type=source_type, source_id="S")
            assert registry.for_source(source).source_type == source_type

    def test_registry_duplicate_rejected(self):
        registry = ExtractorRegistry()
        with pytest.raises(ExtractionError):
            registry.register(DatabaseExtractor())
        registry.register(DatabaseExtractor(), replace=True)

    def test_registry_unknown_type(self, watch_db):
        registry = ExtractorRegistry(include_defaults=False)
        source = RelationalDataSource("DB_1", watch_db)
        with pytest.raises(ExtractionError):
            registry.for_source(source)


class TestManager:
    def test_four_step_extraction(self, repos):
        attributes, sources = repos
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract([
            AttributePath.parse("thing.product.brand"),
            AttributePath.parse("thing.product.watch.case"),
        ])
        assert outcome.ok
        record_set = outcome.record_sets["DB_1"]
        assert record_set.record_count == 3
        assert outcome.total_records() == 3

    def test_missing_attribute_reported_not_fatal(self, repos):
        attributes, sources = repos
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract([
            AttributePath.parse("thing.product.brand"),
            AttributePath.parse("thing.provider.name"),
        ])
        assert outcome.ok
        assert [str(p) for p in outcome.missing_attributes] == \
            ["thing.provider.name"]

    def test_failing_rule_collected(self, repos):
        attributes, sources = repos
        attributes.add(sql_entry("thing.product.price",
                                 "SELECT ghost_column FROM watches"))
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract([
            AttributePath.parse("thing.product.brand"),
            AttributePath.parse("thing.product.price"),
        ])
        assert not outcome.ok
        assert len(outcome.problems) == 1
        assert outcome.problems[0].attribute_id == "thing.product.price"
        # the healthy attribute still extracted
        assert outcome.record_sets["DB_1"].record_count == 3

    def test_strict_mode_raises(self, repos):
        attributes, sources = repos
        attributes.add(sql_entry("thing.product.price",
                                 "SELECT ghost_column FROM watches"))
        manager = ExtractorManager(attributes, sources, strict=True)
        from repro.errors import S2SError
        with pytest.raises(S2SError):
            manager.extract([AttributePath.parse("thing.product.price")])

    def test_unknown_source_collected(self, repos):
        attributes, sources = repos
        attributes.add(sql_entry("thing.provider.name",
                                 "SELECT p FROM t", source_id="GHOST"))
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract([AttributePath.parse("thing.provider.name")])
        assert not outcome.ok
        assert outcome.problems[0].source_id == "GHOST"

    def test_timings_recorded(self, repos):
        attributes, sources = repos
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract([AttributePath.parse("thing.product.brand")])
        assert outcome.elapsed_seconds > 0
        assert "DB_1" in outcome.per_source_seconds

    def test_extract_all_registered(self, repos):
        attributes, sources = repos
        manager = ExtractorManager(attributes, sources)
        outcome = manager.extract_all_registered()
        assert len(outcome.record_sets["DB_1"].fragments) == 3
