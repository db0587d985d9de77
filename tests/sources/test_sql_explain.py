"""Golden EXPLAIN snapshots for the columnar engine.

Byte-for-byte plan renderings for the representative operator chains
(scan-only, filter+project, aggregate, order-by, join), mirroring the
span-shape snapshots in ``tests/core/test_observability.py``: a failure
here means the plan *shape* changed, which is an intentional event that
should be reviewed, not an accident.
"""

from __future__ import annotations

import threading

import pytest

from repro.sources.relational import Database, RelationalDataSource


def seeded_database(engine: str = "columnar") -> Database:
    database = Database("golden", engine=engine)
    database.executescript("""
    CREATE TABLE products (id INTEGER, brand TEXT, price REAL, active BOOLEAN);
    INSERT INTO products (id, brand, price, active) VALUES (1, 'Swatch', 40.0, TRUE);
    INSERT INTO products (id, brand, price, active) VALUES (2, 'Omega', 5200.0, TRUE);
    INSERT INTO products (id, brand, price, active) VALUES (3, 'Tissot', 350.0, FALSE);
    INSERT INTO products (id, brand, price, active) VALUES (4, 'Omega', 980.0, TRUE);
    CREATE TABLE brands (name TEXT, country TEXT);
    INSERT INTO brands (name, country) VALUES ('Omega', 'CH');
    """)
    return database


GOLDEN_SCAN_ONLY = """\
engine=columnar table=products rows=4 batch_size=4096 batches=1
scan products batches=1 [out=4]
project [id, brand, price, active] [out=4]"""

GOLDEN_FILTER_PROJECT = """\
engine=columnar table=products rows=4 batch_size=4096 batches=1
scan products batches=1 [out=4]
filter ((price > 300.0) AND (active = TRUE)) [in=4, out=2, selectivity=0.500]
project [id, brand] [out=2]"""

GOLDEN_AGGREGATE = """\
engine=columnar table=products rows=4 batch_size=4096 batches=1
scan products batches=1 [out=4]
aggregate [brand, n, total] group_by=[brand] [in=4, out=3, selectivity=0.750]
order_by n DESC [out=3]"""

GOLDEN_ORDER_BY = """\
engine=columnar table=products rows=4 batch_size=4096 batches=1
scan products (index seed) batches=1 [out=3]
filter (active = TRUE) [in=3, out=3, selectivity=1.000]
order_by price DESC, brand ASC [out=3]
limit 2 [out=2]
project [brand, price] [out=2]"""

GOLDEN_JOIN = """\
engine=columnar table=products rows=4 batch_size=4096 batches=1
scan products batches=1 [out=4]
filter (products.price > 300.0) [in=4, out=3, selectivity=0.750]
hash_join brands (INNER) on (products.brand = brands.name) [in=3, out=2, selectivity=0.667]
project [id, country] [out=2]"""

JOIN_SQL = ("SELECT products.id, brands.country FROM products "
            "JOIN brands ON products.brand = brands.name "
            "WHERE products.price > 300.0")

GOLDEN_ROW_ENGINE = """\
engine=row table=products rows=4
scan products (row-at-a-time)
filter (price > 300.0)
project"""


class TestGoldenExplain:
    def test_scan_only(self):
        assert (seeded_database().explain("SELECT * FROM products")
                == GOLDEN_SCAN_ONLY)

    def test_filter_project(self):
        sql = ("SELECT id, brand FROM products "
               "WHERE price > 300.0 AND active = TRUE")
        assert seeded_database().explain(sql) == GOLDEN_FILTER_PROJECT

    def test_aggregate(self):
        sql = ("SELECT brand, COUNT(*) AS n, SUM(price) AS total "
               "FROM products GROUP BY brand ORDER BY n DESC")
        assert seeded_database().explain(sql) == GOLDEN_AGGREGATE

    def test_order_by(self):
        sql = ("SELECT brand, price FROM products WHERE active = TRUE "
               "ORDER BY price DESC, brand ASC LIMIT 2")
        assert seeded_database().explain(sql) == GOLDEN_ORDER_BY

    def test_join(self):
        """Pushed-down base filter, then the hash join over its
        survivors — not a fallback to the row engine."""
        assert seeded_database().explain(JOIN_SQL) == GOLDEN_JOIN

    def test_row_engine_static_plan(self):
        assert (seeded_database().explain(
            "SELECT id FROM products WHERE price > 300.0", engine="row")
            == GOLDEN_ROW_ENGINE)


class TestExplainMechanics:
    def test_join_plan_counts_both_sides(self):
        database = seeded_database()
        assert database.execute(JOIN_SQL).rows == [(2, "CH"), (4, "CH")]
        plan = database.last_plan
        assert plan.summary() == "scan>filter>hash_join>project"
        assert plan.rows_scanned == 4 + 1  # base candidates + build side
        # a hash index on the build key is reused: nothing left to scan
        database.execute("CREATE INDEX ON brands (name)")
        database.execute(JOIN_SQL)
        assert database.last_plan.rows_scanned == 4
        assert "brands (INNER, index)" in database.last_plan.render()

    def test_non_equi_join_is_a_loop_join(self):
        rendered = seeded_database().explain(
            "SELECT products.id FROM products "
            "LEFT JOIN brands ON products.brand < brands.name")
        assert ("loop_join brands (LEFT) on (products.brand < brands.name) "
                "[in=4, out=4, selectivity=1.000]") in rendered

    def test_non_select_has_no_plan(self):
        rendered = seeded_database().explain(
            "INSERT INTO products (id) VALUES (9)")
        assert rendered == "engine=columnar statement=Insert (no plan: not a SELECT)"

    def test_index_seed_visible_in_plan(self):
        database = seeded_database()
        database.execute("CREATE INDEX ON products (brand)")
        rendered = database.explain(
            "SELECT id FROM products WHERE brand = 'Omega'")
        assert "scan products (index seed)" in rendered
        assert "batches=1" in rendered

    def test_explain_runs_and_reports_batches(self):
        database = seeded_database()
        plan_line = database.explain("SELECT id FROM products").splitlines()[0]
        assert plan_line == ("engine=columnar table=products rows=4 "
                             "batch_size=4096 batches=1")

    def test_invalid_engine_rejected(self):
        from repro.errors import SqlError
        with pytest.raises(SqlError):
            seeded_database().explain("SELECT id FROM products",
                                      engine="gpu")
        with pytest.raises(SqlError):
            Database("bad", engine="vector")

    def test_source_explain_sql_uses_source_engine(self):
        database = seeded_database()
        source = RelationalDataSource("db_src", database, engine="row")
        assert source.explain_sql("SELECT id FROM products").startswith(
            "engine=row")
        default = RelationalDataSource("db_src2", database)
        assert default.explain_sql("SELECT id FROM products").startswith(
            "engine=columnar")


class TestExplainSurfacesInSpans:
    def test_middleware_explain_carries_sql_plan(self):
        from repro.workloads import B2BScenario
        s2s = B2BScenario(n_sources=2, n_products=4,
                          seed=7).build_middleware()
        rendered = s2s.explain("SELECT product")
        assert "sql_plan='scan>project'" in rendered
        assert "sql_rows_scanned=" in rendered
        assert "sql_batches=1" in rendered

    def test_sql_metrics_counters_flow(self):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        database = seeded_database()
        source = RelationalDataSource("db_m", database, metrics=registry)
        source.execute_rule("SELECT brand FROM products")
        assert registry.value("sql_rows_scanned_total", source="db_m") == 4.0
        assert registry.value("sql_batches_total", source="db_m") == 1.0
        detail = source.consume_execution_detail()
        assert detail == {"sql_plan": "scan>project",
                          "sql_rows_scanned": 4, "sql_batches": 1}
        # one-shot: a second consume yields nothing
        assert source.consume_execution_detail() is None

    def test_plan_read_back_is_per_thread(self):
        """Two clients sharing one source run on two threads; with both
        statements executed before either reads back, each must still
        get its own plan, and each plan is counted once."""
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        source = RelationalDataSource("db_t", seeded_database(),
                                      metrics=registry)
        source.connect()
        rules = {"scan": "SELECT brand FROM products",
                 "filter": "SELECT brand FROM products WHERE price > 300.0"}
        executed = threading.Barrier(2, timeout=5.0)
        details: dict[str, object] = {}

        def client(name: str) -> None:
            source.execute_rule(rules[name])
            executed.wait()
            details[name] = source.consume_execution_detail()

        threads = [threading.Thread(target=client, args=(name,))
                   for name in rules]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert details["scan"]["sql_plan"] == "scan>project"
        assert details["filter"]["sql_plan"] == "scan>filter>project"
        assert registry.value("sql_rows_scanned_total", source="db_t") == 8.0
        assert registry.value("sql_batches_total", source="db_t") == 2.0

    def test_row_engine_rule_leaves_no_detail(self):
        database = seeded_database()
        source = RelationalDataSource("db_r", database, engine="row")
        source.execute_rule("SELECT brand FROM products")
        assert source.consume_execution_detail() is None
