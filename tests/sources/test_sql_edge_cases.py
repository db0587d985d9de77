"""Deeper SQL engine edge cases, run against BOTH execution engines.

The ``db`` fixture is parameterized on the engine knob, so every test
in this module asserts identical behaviour for the row-at-a-time
oracle and the vectorized columnar engine.
"""

import pytest

from repro.errors import SqlError, SqlExecutionError, SqlSyntaxError
from repro.sources.relational import Database


@pytest.fixture(params=["row", "columnar"])
def engine(request):
    return request.param


@pytest.fixture
def db(engine):
    database = Database("edge", engine=engine)
    database.executescript("""
    CREATE TABLE t (id INTEGER, name TEXT, price REAL, flag BOOLEAN);
    INSERT INTO t (id, name, price, flag) VALUES
      (1, 'a_b', 10.0, TRUE),
      (2, 'a%b', 20.0, FALSE),
      (3, 'AB', 30.0, TRUE),
      (4, NULL, NULL, NULL);
    """)
    return database


class TestLikeEscaping:
    def test_underscore_is_single_char_wildcard(self, db):
        result = db.execute("SELECT id FROM t WHERE name LIKE 'a_b'")
        assert sorted(result.scalars()) == [1, 2]

    def test_percent_wildcard_case_insensitive(self, db):
        # The dialect's LIKE is case-insensitive (MySQL-style), so 'a%'
        # also matches 'AB'.
        result = db.execute("SELECT id FROM t WHERE name LIKE 'a%'")
        assert sorted(result.scalars()) == [1, 2, 3]

    def test_regex_specials_in_pattern_are_literal(self, db):
        db.execute("INSERT INTO t (id, name) VALUES (9, 'x.y[z]')")
        result = db.execute(r"SELECT id FROM t WHERE name LIKE 'x.y[z]'")
        assert result.scalars() == [9]

    def test_null_never_matches_like(self, db):
        result = db.execute("SELECT id FROM t WHERE name LIKE '%'")
        assert 4 not in result.scalars()


class TestBooleans:
    def test_boolean_equality(self, db):
        result = db.execute("SELECT id FROM t WHERE flag = TRUE")
        assert sorted(result.scalars()) == [1, 3]

    def test_boolean_null_excluded(self, db):
        true_ids = set(db.execute(
            "SELECT id FROM t WHERE flag = TRUE").scalars())
        false_ids = set(db.execute(
            "SELECT id FROM t WHERE flag = FALSE").scalars())
        assert 4 not in true_ids | false_ids


class TestParenthesizedConditions:
    def test_nested_parens(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE ((id = 1 OR id = 2) AND NOT (id = 2))")
        assert result.scalars() == [1]

    def test_not_binds_tighter_than_and(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE NOT id = 1 AND id < 3")
        assert result.scalars() == [2]


class TestDistinctAndOrdering:
    def test_distinct_multi_column(self, db):
        db.execute("INSERT INTO t (id, name, price) VALUES (1, 'a_b', 10.0)")
        result = db.execute("SELECT DISTINCT id, name FROM t WHERE id = 1")
        assert len(result) == 1

    def test_order_by_alias_column_in_projection(self, db):
        result = db.execute(
            "SELECT name AS label FROM t WHERE name IS NOT NULL "
            "ORDER BY name")
        assert result.columns == ["label"]
        assert result.scalars() == sorted(result.scalars())

    def test_limit_zero(self, db):
        assert len(db.execute("SELECT id FROM t LIMIT 0")) == 0

    def test_limit_larger_than_result(self, db):
        assert len(db.execute("SELECT id FROM t LIMIT 100")) == 4


class TestAggregatesEdge:
    def test_avg_over_nulls_only(self, db):
        result = db.execute("SELECT AVG(price) FROM t WHERE id = 4")
        assert result.rows == [(None,)]

    def test_min_max_of_text(self, db):
        row = db.execute(
            "SELECT MIN(name), MAX(name) FROM t WHERE name IS NOT NULL"
        ).rows[0]
        assert row == ("AB", "a_b") or row == ("AB", "a%b")

    def test_group_by_with_null_group(self, db):
        result = db.execute(
            "SELECT flag, COUNT(*) FROM t GROUP BY flag")
        groups = dict(result.rows)
        assert groups[None] == 1
        assert groups[True] == 2

    def test_count_distinct_not_supported_cleanly(self, db):
        # COUNT(DISTINCT x) is not in the dialect; it must *fail loudly*,
        # not silently return a wrong answer.
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT COUNT(DISTINCT name) FROM t")


class TestJoinEdge:
    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id "
            "WHERE a.id <= 2 ORDER BY a.id")
        assert result.rows == [(1, 1), (2, 2)]

    def test_join_on_null_keys_never_matches(self, db):
        db.execute("CREATE TABLE u (ref INTEGER)")
        db.execute("INSERT INTO u (ref) VALUES (NULL)")
        result = db.execute(
            "SELECT t.id FROM t JOIN u ON t.price = u.ref")
        assert len(result) == 0

    def test_three_way_left_join_chain(self, db):
        db.execute("CREATE TABLE u (tid INTEGER, v TEXT)")
        db.execute("INSERT INTO u (tid, v) VALUES (1, 'x')")
        db.execute("CREATE TABLE w (uv TEXT, z INTEGER)")
        result = db.execute(
            "SELECT t.id, u.v, w.z FROM t "
            "LEFT JOIN u ON t.id = u.tid "
            "LEFT JOIN w ON u.v = w.uv ORDER BY t.id")
        assert result.rows[0] == (1, "x", None)
        assert result.rows[1] == (2, None, None)


    def test_mixed_type_less_than_across_tables(self, db):
        db.execute("CREATE TABLE u (ref INTEGER)")
        db.execute("INSERT INTO u (ref) VALUES (4)")
        with pytest.raises(SqlExecutionError,
                           match="cannot compare 'a_b' with 4"):
            db.execute("SELECT t.id FROM t JOIN u ON t.name < u.ref")
        with pytest.raises(SqlExecutionError,
                           match="cannot compare 10.0 with 'a_b'"):
            db.execute("SELECT t.id FROM t LEFT JOIN u ON t.id = u.ref "
                       "WHERE t.price < t.name")
        # ... but never for a row the join dropped first: only id 4
        # (NULL name) has a partner, so nothing incomparable is compared
        # — the columnar engine must not let pushdown get ahead of that.
        result = db.execute("SELECT t.id FROM t JOIN u ON t.id = u.ref "
                            "WHERE t.price < t.name")
        assert result.rows == []

    def test_ambiguous_unqualified_column(self, db):
        db.execute("CREATE TABLE u (id INTEGER, v TEXT)")
        db.execute("INSERT INTO u (id, v) VALUES (1, 'x')")
        for sql in ("SELECT id FROM t JOIN u ON t.id = u.id",
                    "SELECT v FROM t JOIN u ON t.id = u.id WHERE id = 1",
                    "SELECT v FROM t JOIN u ON t.id = u.id ORDER BY id"):
            with pytest.raises(SqlExecutionError,
                               match="ambiguous column 'id'"):
                db.execute(sql)
        # resolution is lazy: no joined row, no lookup, no error
        assert db.execute("SELECT id FROM t JOIN u ON t.id = u.id "
                          "WHERE t.price > 1000.0").rows == []
        # ... including the ON key looked up on the outer side
        with pytest.raises(SqlExecutionError,
                           match="unknown table alias 'zz'"):
            db.execute("SELECT v FROM t JOIN u ON zz.id = u.id "
                       "WHERE t.price > 1000.0")

    def test_left_join_is_null_finds_unmatched_rows(self, db):
        db.execute("CREATE TABLE u (tid INTEGER, v TEXT)")
        db.execute("INSERT INTO u (tid, v) VALUES (1, 'x'), (3, NULL)")
        unmatched = db.execute(
            "SELECT t.id, u.v FROM t LEFT JOIN u ON t.id = u.tid "
            "WHERE u.tid IS NULL ORDER BY t.id")
        assert unmatched.rows == [(2, None), (4, None)]
        null_valued = db.execute(
            "SELECT t.id FROM t LEFT JOIN u ON t.id = u.tid "
            "WHERE u.v IS NULL AND t.id < 4 ORDER BY t.id DESC")
        assert null_valued.rows == [(3,), (2,)]


class TestDdlEdge:
    def test_rename_column_then_old_name_gone(self, db):
        db.execute("ALTER TABLE t RENAME COLUMN name TO label")
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT name FROM t")

    def test_add_not_null_column_to_populated_table(self, db):
        # new column backfills NULL; inserting NULL later is rejected
        db.execute("ALTER TABLE t ADD COLUMN req TEXT NOT NULL")
        with pytest.raises(SqlExecutionError):
            db.execute("INSERT INTO t (id) VALUES (99)")

    def test_quoted_identifier_collides_with_keyword(self, db):
        db.execute('CREATE TABLE "select" (a INTEGER)')
        db.execute('INSERT INTO "select" (a) VALUES (1)')
        assert db.execute('SELECT a FROM "select"').scalars() == [1]


class TestNullSemantics:
    """SQL's three-valued logic collapses to False at every comparison."""

    def test_null_comparisons_never_match(self, db):
        for operator in ("=", "!=", "<", ">", "<=", ">="):
            result = db.execute(f"SELECT id FROM t WHERE price {operator} NULL")
            assert result.scalars() == [], operator

    def test_null_column_comparison_excludes_null_rows(self, db):
        # id 4 has NULL price: never matches, not even on !=.
        assert sorted(db.execute(
            "SELECT id FROM t WHERE price != 10.0").scalars()) == [2, 3]

    def test_is_null_and_is_not_null_partition_rows(self, db):
        null_ids = db.execute("SELECT id FROM t WHERE price IS NULL").scalars()
        rest = db.execute("SELECT id FROM t WHERE price IS NOT NULL").scalars()
        assert sorted(null_ids + rest) == [1, 2, 3, 4]

    def test_null_in_list_matches_via_python_membership(self, db):
        # Dialect quirk (both engines): IN uses Python membership, so a
        # NULL operand matches an explicit NULL option.
        result = db.execute("SELECT id FROM t WHERE price IN (10.0, NULL)")
        assert sorted(result.scalars()) == [1, 4]

    def test_not_of_null_comparison_matches_null_rows(self, db):
        # NOT (NULL > 5) is NOT False = True in this dialect.
        result = db.execute("SELECT id FROM t WHERE NOT price > 5.0")
        assert 4 in result.scalars()


class TestTypeCoercionComparisons:
    def test_integer_and_real_compare_numerically(self, db):
        db.execute("INSERT INTO t (id, price) VALUES (5, 20.0)")
        assert sorted(db.execute(
            "SELECT id FROM t WHERE price = 20").scalars()) == [2, 5]

    def test_integer_column_against_float_literal(self, db):
        assert sorted(db.execute(
            "SELECT id FROM t WHERE id < 2.5").scalars()) == [1, 2]

    def test_boolean_column_against_integers(self, db):
        # BOOLEAN values are Python bools: True == 1 numerically.
        assert sorted(db.execute(
            "SELECT id FROM t WHERE flag = 1").scalars()) == [1, 3]

    def test_text_number_comparison_raises_identically(self, db, engine):
        with pytest.raises(SqlExecutionError, match="cannot compare"):
            db.execute("SELECT id FROM t WHERE name > 3")

    def test_short_circuit_hides_incomparable_rows(self, db):
        # The AND's left side excludes the rows whose name/number
        # comparison would raise; both engines must agree (the columnar
        # engine re-runs the batch row-at-a-time to reproduce this).
        result = db.execute(
            "SELECT id FROM t WHERE id IN (4) AND name > 'z'")
        assert result.scalars() == []

    def test_boolean_results_keep_bool_type(self, db):
        values = db.execute(
            "SELECT flag FROM t WHERE flag IS NOT NULL").scalars()
        assert all(isinstance(value, bool) for value in values)


class TestZeroRowZeroColumn:
    def test_zero_column_table_rejected(self, engine):
        database = Database("zero", engine=engine)
        with pytest.raises(SqlSyntaxError):
            database.execute("CREATE TABLE nothing ()")

    def test_zero_column_table_rejected_programmatically(self, engine):
        database = Database("zero", engine=engine)
        from repro.sources.relational import Table
        with pytest.raises(SqlError):
            Table("nothing", [])

    def test_zero_row_table_shapes(self, engine):
        database = Database("zero", engine=engine)
        database.execute("CREATE TABLE e (x INTEGER, y TEXT)")
        assert database.execute("SELECT x FROM e").rows == []
        assert database.execute("SELECT COUNT(*) FROM e").rows == [(0,)]
        assert database.execute("SELECT SUM(x) FROM e").rows == [(None,)]
        assert database.execute("SELECT x FROM e GROUP BY x").rows == []

    def test_zero_row_star_projects_placeholder_label(self, engine):
        # Row-engine quirk kept by the columnar engine: star over an
        # empty result has no rows to introspect and labels itself "*".
        database = Database("zero", engine=engine)
        database.execute("CREATE TABLE e (x INTEGER)")
        result = database.execute("SELECT * FROM e")
        assert (result.columns, result.rows) == (["*"], [])

    def test_zero_row_order_and_distinct(self, engine):
        database = Database("zero", engine=engine)
        database.execute("CREATE TABLE e (x INTEGER, y TEXT)")
        result = database.execute(
            "SELECT DISTINCT y FROM e ORDER BY x DESC LIMIT 3")
        assert (result.columns, result.rows) == (["y"], [])


class TestEngineOverridePrecedence:
    def test_statement_override_beats_database_default(self):
        database = Database("prec", engine="row")
        database.execute("CREATE TABLE p (x INTEGER)")
        database.execute("INSERT INTO p (x) VALUES (1)")
        database.execute("SELECT x FROM p", engine="columnar")
        assert database.last_plan is not None
        database.execute("SELECT x FROM p")
        assert database.last_plan is None  # row default leaves no plan

    def test_distinct_order_by_pairing_fixed_in_both_engines(self, db):
        # Regression guard: dedup used to truncate the binding list and
        # sort surviving tuples by the wrong underlying rows.
        db.execute("INSERT INTO t (id, name, price) VALUES (6, 'a_b', 1.0)")
        result = db.execute("SELECT DISTINCT name FROM t ORDER BY price DESC")
        assert result.rows == [("AB",), ("a%b",), ("a_b",), (None,)]
