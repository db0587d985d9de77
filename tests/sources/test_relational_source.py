"""Tests for the relational types, table internals and connector."""

import pytest

from repro.errors import ExtractionError, S2SError, SqlError
from repro.sources.base import ConnectionInfo
from repro.sources.relational import Column, RelationalDataSource
from repro.sources.relational.table import Table
from repro.sources.relational.types import canonical_type, coerce_value


class TestTypes:
    def test_synonyms(self):
        assert canonical_type("VARCHAR(40)") == "TEXT"
        assert canonical_type("int") == "INTEGER"
        assert canonical_type("Double") == "REAL"
        assert canonical_type("bool") == "BOOLEAN"

    def test_unknown_type(self):
        with pytest.raises(SqlError):
            canonical_type("BLOB")

    def test_coerce_none_passthrough(self):
        assert coerce_value(None, "INTEGER") is None

    def test_integer_rejects_fractional(self):
        with pytest.raises(SqlError):
            coerce_value(1.5, "INTEGER")

    def test_integer_accepts_integral_float(self):
        assert coerce_value(2.0, "INTEGER") == 2

    def test_boolean_spellings(self):
        assert coerce_value("true", "BOOLEAN") is True
        assert coerce_value("0", "BOOLEAN") is False
        assert coerce_value(1, "BOOLEAN") is True

    def test_boolean_garbage(self):
        with pytest.raises(SqlError):
            coerce_value("maybe", "BOOLEAN")

    def test_text_renders_booleans(self):
        assert coerce_value(True, "TEXT") == "true"

    def test_real_rejects_boolean(self):
        with pytest.raises(SqlError):
            coerce_value(True, "REAL")


class TestTable:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SqlError):
            Table("t", [Column("a", "TEXT"), Column("A", "TEXT")])

    def test_empty_columns_rejected(self):
        with pytest.raises(SqlError):
            Table("t", [])

    def test_column_lookup_case_insensitive(self):
        table = Table("t", [Column("Brand", "TEXT")])
        assert table.column_index("brand") == 0

    def test_rename_to_existing_rejected(self):
        table = Table("t", [Column("a", "TEXT"), Column("b", "TEXT")])
        with pytest.raises(SqlError):
            table.rename_column("a", "b")

    def test_create_index_twice_is_noop(self):
        table = Table("t", [Column("a", "TEXT")])
        table.create_index("a")
        table.create_index("a")
        assert table.has_index("a")


class TestConnector:
    @pytest.fixture
    def source(self, watch_db):
        return RelationalDataSource("DB_ID_45", watch_db,
                                    location="db.acme.example",
                                    login="integration", password="secret")

    def test_execute_rule_returns_strings(self, source):
        values = source.execute_rule("SELECT brand FROM watches")
        assert values == ["Seiko", "Casio", "Seiko"]

    def test_numbers_stringified(self, source):
        values = source.execute_rule("SELECT price_cents FROM watches")
        assert values == ["19900", "1550", "8900"]

    def test_null_becomes_empty_string(self, source, watch_db):
        watch_db.execute("INSERT INTO watches (id) VALUES (99)")
        values = source.execute_rule("SELECT brand FROM watches WHERE id=99")
        assert values == [""]

    def test_multi_column_rule_rejected(self, source):
        with pytest.raises(ExtractionError):
            source.execute_rule("SELECT brand, model FROM watches")

    def test_connection_info_carries_paper_fields(self, source):
        info = source.connection_info()
        assert info.source_type == "database"
        assert info.parameters["location"] == "db.acme.example"
        assert info.parameters["login"] == "integration"
        assert info.parameters["password"] == "secret"
        assert info.parameters["driver"] == "repro-mem"

    def test_auth_failure_on_connect(self, watch_db):
        bad = RelationalDataSource("DB_X", watch_db, password="wrong",
                                   expected_password="right")
        with pytest.raises(S2SError):
            bad.connect()

    def test_context_manager(self, source):
        with source as live:
            assert live.connected
        assert not source.connected


class TestConnectionInfo:
    def test_require_present(self):
        info = ConnectionInfo("database", {"url": "http://x"})
        assert info.require("url") == "http://x"

    def test_require_missing_raises(self):
        info = ConnectionInfo("database", {})
        with pytest.raises(S2SError):
            info.require("url")

    def test_get_default(self):
        assert ConnectionInfo("x", {}).get("k", "d") == "d"
