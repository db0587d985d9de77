"""Tests for mapping entries and the two repositories (paper section 2.3)."""

import pytest

from repro.core.mapping import (AttributeRepository, DataSourceRepository,
                                MappingEntry)
from repro.core.mapping.attributes import parse_paper_line
from repro.core.mapping.rules import ExtractionRule
from repro.errors import (MappingError, UnknownAttributeError,
                          UnknownDataSourceError)
from repro.ids import AttributePath
from repro.sources.relational import Database, RelationalDataSource


def entry(attribute="thing.product.brand", code="SELECT brand FROM t",
          source_id="DB_ID_45", language="sql", name=""):
    return MappingEntry(AttributePath.parse(attribute),
                        ExtractionRule(language, code, name=name), source_id)


class TestMappingEntry:
    def test_paper_line_sql(self):
        line = entry(
            "thing.product.watch.case",
            "SELECT aatribute FROM atable WHERE aattribute = 'avalue'",
        ).paper_line()
        assert line == ("thing.product.watch.case = SELECT aatribute FROM "
                        "atable WHERE aattribute = 'avalue', DB_ID_45")

    def test_paper_line_named_rule(self):
        line = entry(code="var x = 1;", language="webl",
                     name="watch.webl", source_id="wpage_81").paper_line()
        assert line == "thing.product.brand = watch.webl, wpage_81"

    def test_source_required(self):
        with pytest.raises(MappingError):
            entry(source_id="")

    def test_parse_paper_line_roundtrip(self):
        original = entry()
        parsed = parse_paper_line(original.paper_line(), language="sql")
        assert parsed.attribute_id == original.attribute_id
        assert parsed.source_id == original.source_id
        assert parsed.rule.code == original.rule.code

    def test_parse_paper_line_with_explicit_code(self):
        parsed = parse_paper_line(
            "thing.product.brand = watch.webl, wpage_81",
            language="webl", code="var x = 1;")
        assert parsed.rule.name == "watch.webl"
        assert parsed.rule.code == "var x = 1;"

    def test_parse_rejects_garbage(self):
        with pytest.raises(MappingError):
            parse_paper_line("no equals sign", language="sql")
        with pytest.raises(MappingError):
            parse_paper_line("a.b = only rule", language="sql")


class TestAttributeRepository:
    def test_add_and_lookup(self):
        repo = AttributeRepository()
        repo.add(entry())
        entries = repo.entries_for("thing.product.brand")
        assert len(entries) == 1

    def test_multi_source_attribute(self):
        repo = AttributeRepository()
        repo.add(entry(source_id="DB_ID_45"))
        repo.add(entry(source_id="DB_ID_46"))
        assert len(repo.entries_for("thing.product.brand")) == 2
        assert len(repo) == 2

    def test_duplicate_source_rejected(self):
        repo = AttributeRepository()
        repo.add(entry())
        with pytest.raises(MappingError):
            repo.add(entry())

    def test_replace(self):
        repo = AttributeRepository()
        repo.add(entry(code="SELECT old FROM t"))
        repo.add(entry(code="SELECT new FROM t"), replace=True)
        assert repo.entries_for("thing.product.brand")[0].rule.code == \
            "SELECT new FROM t"

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttributeError):
            AttributeRepository().entries_for("thing.product.ghost")

    def test_try_entries_empty(self):
        assert AttributeRepository().try_entries_for("a.b") == []

    def test_remove_single_source(self):
        repo = AttributeRepository()
        repo.add(entry(source_id="A"))
        repo.add(entry(source_id="B"))
        assert repo.remove("thing.product.brand", "A") == 1
        assert len(repo.entries_for("thing.product.brand")) == 1

    def test_remove_all_sources(self):
        repo = AttributeRepository()
        repo.add(entry(source_id="A"))
        repo.add(entry(source_id="B"))
        assert repo.remove("thing.product.brand") == 2
        assert not repo.is_registered("thing.product.brand")

    def test_remove_missing(self):
        repo = AttributeRepository()
        with pytest.raises(UnknownAttributeError):
            repo.remove("a.b")
        repo.add(entry(source_id="A"))
        with pytest.raises(MappingError):
            repo.remove("thing.product.brand", "ZZZ")

    def test_entries_for_source(self):
        repo = AttributeRepository()
        repo.add(entry(source_id="A"))
        repo.add(entry("thing.product.model", "SELECT m FROM t", "A"))
        repo.add(entry("thing.product.price", "SELECT p FROM t", "B"))
        assert len(repo.entries_for_source("A")) == 2
        assert repo.source_ids() == ["A", "B"]

    def test_paper_lines_sorted(self):
        repo = AttributeRepository()
        repo.add(entry("thing.product.model", "SELECT m FROM t", "A"))
        repo.add(entry("thing.product.brand", "SELECT b FROM t", "A"))
        lines = repo.paper_lines()
        assert lines == sorted(lines)
        assert all(" = " in line for line in lines)


class TestDataSourceRepository:
    @pytest.fixture
    def source(self):
        db = Database("d")
        db.execute("CREATE TABLE t (a TEXT)")
        return RelationalDataSource("DB_ID_45", db)

    def test_register_and_get(self, source):
        repo = DataSourceRepository()
        assert repo.register(source) == "DB_ID_45"
        assert repo.get("DB_ID_45") is source

    def test_duplicate_rejected(self, source):
        repo = DataSourceRepository()
        repo.register(source)
        with pytest.raises(MappingError):
            repo.register(source)
        repo.register(source, replace=True)

    def test_unknown_source(self):
        with pytest.raises(UnknownDataSourceError):
            DataSourceRepository().get("ghost")

    def test_connection_info_lookup(self, source):
        repo = DataSourceRepository()
        repo.register(source)
        assert repo.connection_info("DB_ID_45").source_type == "database"

    def test_iteration_and_len(self, source):
        repo = DataSourceRepository()
        repo.register(source)
        assert len(repo) == 1
        assert list(repo) == [source]
