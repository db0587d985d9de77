"""Property-based differential testing: columnar engine vs row oracle.

A seeded stdlib-``random`` generator builds random tables (mixed column
types, NULLs, duplicate values, sometimes zero rows) and random SELECT
queries over them (WHERE trees, DISTINCT, GROUP BY + aggregates +
HAVING, ORDER BY, LIMIT).  Every query runs through both engines and
the results must agree row for row — including value *types*, so a
BOOLEAN ``True`` materialized as ``1`` would fail even though the
tuples compare equal.  A second generator does the same over two- and
three-table joins (INNER / LEFT; equi, non-equi and compound ON;
qualified and unqualified references; the occasional unknown,
ambiguous or incomparable reference, whose error must match by type
and message).

The row executor is the oracle: whatever it answers (or raises) defines
correct behaviour for the vectorized engine.  Indexes must never show:
every statement of the corpus answers (or raises) the same on a twin
database with every column indexed up front and on one with no index
at all, under both engines.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SqlExecutionError
from repro.sources.relational import Database
from repro.sources.relational.table import Table

from .test_table_indexes import assert_indexes_current

CASES_PER_SEED = 12
SEEDS = range(20)  # 20 seeds x 12 queries = 240 generated cases
JOIN_CASES_PER_SEED = 15
JOIN_SEEDS = range(100, 120)  # 20 seeds x 15 queries = 300 join cases

TYPE_POOLS = {
    "INTEGER": [0, 1, 2, 3, 5, 7, 10, 42, 2 ** 70],
    "REAL": [0.5, 1.5, 2.5, 10.0, 99.25],
    "TEXT": ["alpha", "beta", "Gamma", "a%b", "x_y", ""],
    "BOOLEAN": [True, False],
}
LIKE_PATTERNS = ["a%", "%a%", "_lpha", "%", "x_y", "G%"]
COMPARE_OPS = ["=", "!=", "<", ">", "<=", ">="]


def random_table(rng: random.Random, database: Database) -> tuple[str, list]:
    """Create one random table; returns (name, [(name, type), ...])."""
    n_columns = rng.randint(2, 5)
    types = [rng.choice(list(TYPE_POOLS)) for _ in range(n_columns)]
    schema = [(f"c{i}", t) for i, t in enumerate(types)]
    ddl = ", ".join(f"{name} {t}" for name, t in schema)
    database.execute(f"CREATE TABLE t ({ddl})")
    n_rows = rng.choice([0, 1, rng.randint(2, 12), rng.randint(13, 40)])
    for _ in range(n_rows):
        values = []
        for _name, type_name in schema:
            if rng.random() < 0.2:
                values.append("NULL")
            else:
                values.append(render_literal(rng.choice(TYPE_POOLS[type_name])))
        columns = ", ".join(name for name, _t in schema)
        database.execute(
            f"INSERT INTO t ({columns}) VALUES ({', '.join(values)})")
    if rng.random() < 0.3 and schema:
        indexed = rng.choice(schema)[0]
        database.execute(f"CREATE INDEX ON t ({indexed})")
    return "t", schema


def render_literal(value) -> str:
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def random_condition(rng: random.Random, schema: list, depth: int = 0) -> str:
    if depth < 2 and rng.random() < 0.35:
        op = rng.choice(["AND", "OR"])
        left = random_condition(rng, schema, depth + 1)
        right = random_condition(rng, schema, depth + 1)
        combined = f"({left} {op} {right})"
        if rng.random() < 0.15:
            return f"NOT {combined}"
        return combined
    name, type_name = rng.choice(schema)
    kind = rng.random()
    if kind < 0.15:
        return f"{name} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind < 0.3:
        options = ", ".join(
            render_literal(rng.choice(TYPE_POOLS[type_name]))
            for _ in range(rng.randint(1, 3)))
        negated = "NOT " if rng.random() < 0.3 else ""
        return f"{name} {negated}IN ({options})"
    if kind < 0.45 and type_name == "TEXT":
        return f"{name} LIKE '{rng.choice(LIKE_PATTERNS)}'"
    if kind < 0.6:
        # column-to-column comparison against a type-compatible peer
        peers = [n for n, t in schema
                 if t == type_name or
                 {t, type_name} <= {"INTEGER", "REAL"}]
        other = rng.choice(peers)
        return f"{name} {rng.choice(COMPARE_OPS)} {other}"
    literal = render_literal(rng.choice(TYPE_POOLS[type_name]))
    return f"{name} {rng.choice(COMPARE_OPS)} {literal}"


def random_select(rng: random.Random, schema: list, source: str = "t",
                  where: str | None = None) -> str:
    """A random SELECT over ``source`` (a table, or a whole FROM ... JOIN
    clause) whose referencable columns are ``schema``."""
    if where is None:
        where = (f" WHERE {random_condition(rng, schema)}"
                 if rng.random() < 0.7 else "")
    limit = f" LIMIT {rng.randint(0, 10)}" if rng.random() < 0.2 else ""

    if rng.random() < 0.3:  # grouped/aggregate query
        group_columns = rng.sample([n for n, _t in schema],
                                   k=rng.randint(0, min(2, len(schema))))
        items = [name for name in group_columns]
        aggregates = []
        for _ in range(rng.randint(1, 2)):
            name, type_name = rng.choice(schema)
            choices = ["COUNT(*)", f"COUNT({name})",
                       f"MIN({name})", f"MAX({name})"]
            if type_name in ("INTEGER", "REAL"):
                choices += [f"SUM({name})", f"AVG({name})"]
            alias = f"a{len(aggregates)}"
            aggregates.append(f"{rng.choice(choices)} AS {alias}")
        items += aggregates
        sql = f"SELECT {', '.join(items)} FROM {source}{where}"
        if group_columns:
            sql += f" GROUP BY {', '.join(group_columns)}"
            if rng.random() < 0.3:
                having_name = rng.choice(group_columns)
                having_type = dict(schema)[having_name]
                literal = render_literal(rng.choice(TYPE_POOLS[having_type]))
                sql += f" HAVING {having_name} {rng.choice(COMPARE_OPS)} {literal}"
            if rng.random() < 0.5:
                order = rng.choice(group_columns +
                                   [f"a{i}" for i in range(len(aggregates))])
                sql += f" ORDER BY {order}{' DESC' if rng.random() < 0.5 else ''}"
        return sql + limit

    if rng.random() < 0.2:
        items = "*"
    else:
        picked = rng.sample([n for n, _t in schema],
                            k=rng.randint(1, len(schema)))
        items = ", ".join(picked)
    distinct = "DISTINCT " if rng.random() < 0.25 else ""
    sql = f"SELECT {distinct}{items} FROM {source}{where}"
    if rng.random() < 0.5:
        orders = rng.sample([n for n, _t in schema],
                            k=rng.randint(1, min(2, len(schema))))
        rendered = ", ".join(
            f"{name}{' DESC' if rng.random() < 0.5 else ''}"
            for name in orders)
        sql += f" ORDER BY {rendered}"
    return sql + limit


# -- join generator -----------------------------------------------------------

#: join-key pools are small so keys collide (and miss) often
KEY_POOLS = {"INTEGER": [0, 1, 2, 3], "TEXT": ["alpha", "beta", "Gamma"]}


def random_join_world(rng: random.Random, database: Database) -> dict:
    """Three random tables ``t`` / ``u`` / ``v``; returns
    ``{table: [(column, type), ...]}``.  Every table has a join-key
    column ``k`` (one type for all three — the shared name is what makes
    an unqualified ``k`` ambiguous), a second key ``<table>k`` and a few
    uniquely named payload columns."""
    key_type = rng.choice(list(KEY_POOLS))
    world = {}
    for table in ("t", "u", "v"):
        schema = [("k", key_type), (f"{table}k", rng.choice(list(KEY_POOLS)))]
        schema += [(f"{table}{i}", rng.choice(list(TYPE_POOLS)))
                   for i in range(rng.randint(1, 3))]
        ddl = ", ".join(f"{name} {t}" for name, t in schema)
        database.execute(f"CREATE TABLE {table} ({ddl})")
        columns = ", ".join(name for name, _t in schema)
        n_rows = rng.choice([0, 1, rng.randint(2, 8), rng.randint(2, 8)]
                            + [rng.randint(9, 30)] * 4)
        for _ in range(n_rows):
            values = []
            for name, type_name in schema:
                pool = (KEY_POOLS if name.endswith("k")
                        else TYPE_POOLS)[type_name]
                values.append("NULL" if rng.random() < 0.15
                              else render_literal(rng.choice(pool)))
            database.execute(f"INSERT INTO {table} ({columns}) "
                             f"VALUES ({', '.join(values)})")
        if rng.random() < 0.35:  # an indexed join key / scan seed
            database.execute(
                f"CREATE INDEX ON {table} ({rng.choice(schema[:2])[0]})")
        world[table] = schema
    return world


def random_join_select(rng: random.Random, world: dict) -> str:
    tables = ["t"] + rng.sample(["u", "v"], k=rng.choice([1, 1, 2]))
    alias = {table: (rng.choice("abc") + table if rng.random() < 0.3
                     else table) for table in tables}

    faulty = rng.random() < 0.25  # one query in four may mis-reference

    def ref(table: str, column: str) -> str:
        roll = rng.random()
        if faulty and roll < 0.03:
            return f"nope.{column}"      # unknown table alias
        if faulty and roll < 0.06:
            return "zz"                  # unknown column
        if faulty and roll < 0.09:
            return f"{alias[table]}.zz"  # known alias, missing column
        if roll < 0.40 and (column != "k" or (faulty and roll < 0.15)):
            return column                # unqualified (``k``: ambiguous)
        return f"{alias[table]}.{column}"

    def scope(visible: list) -> list:
        """(rendered reference, type) for every column of ``visible``."""
        return [(ref(table, name), type_name)
                for table in visible for name, type_name in world[table]]

    from_clause = "t" if alias["t"] == "t" else f"t {alias['t']}"
    for position, table in enumerate(tables[1:], start=1):
        outer = rng.choice(tables[:position])
        keys = [(o, i) for o, ot in world[outer][:2]
                for i, it in world[table][:2] if ot == it]
        outer_key, inner_key = rng.choice(keys)
        sides = [ref(outer, outer_key), ref(table, inner_key)]
        rng.shuffle(sides)
        equi = f"{sides[0]} = {sides[1]}"
        shape = rng.random()
        if shape < 0.6:
            on = equi
        elif shape < 0.8:  # non-equi (sometimes across types)
            left = rng.choice(scope([outer]))[0]
            right = rng.choice(scope([table]))[0]
            on = f"{left} {rng.choice(COMPARE_OPS)} {right}"
        else:              # compound
            extra = random_condition(rng, scope(tables[:position + 1]), 1)
            on = f"{equi} {rng.choice(['AND', 'OR'])} {extra}"
        kind = rng.choice(["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT JOIN"])
        target = table if alias[table] == table else f"{table} {alias[table]}"
        from_clause += f" {kind} {target} ON {on}"

    where = ""
    if rng.random() < 0.65:
        # 1-3 conjuncts, base-table and joined-table ones in either order
        parts = [random_condition(
            rng, scope(["t"] if rng.random() < 0.5 else tables[1:]), 1)
            for _ in range(rng.choice([1, 1, 1, 2, 2, 3]))]
        texts = [r for r, t in scope(tables) if t == "TEXT"]
        if texts and rng.random() < 0.12:  # incomparable: TEXT vs number
            parts.insert(rng.randrange(len(parts) + 1),
                         f"{rng.choice(texts)} < 3")
        where = f" WHERE {' AND '.join(parts)}"
    return random_select(rng, scope(tables), from_clause, where)


def run_engine(database: Database, sql: str, engine: str):
    """Result (columns, rows, row reprs) or the raised error's type and
    message."""
    try:
        result = database.execute(sql, engine=engine)
    except Exception as exc:  # whatever escapes must escape both engines
        return ("error", type(exc).__name__, str(exc))
    # repr captures value types too: True != 1, 1 != 1.0 under repr even
    # though the tuples compare equal.
    return (result.columns, result.rows, [repr(row) for row in result.rows])


def single_table_case(rng: random.Random, database: Database) -> str:
    _name, schema = random_table(rng, database)
    return random_select(rng, schema)


def join_case(rng: random.Random, database: Database) -> str:
    return random_join_select(rng, random_join_world(rng, database))


def seeded_case(rng: random.Random, database: Database) -> str:
    """A single-table SELECT whose WHERE leads with ``col = literal``,
    the literal drawn from any type's pool or NULL, and now and then
    followed by a conjunct that cannot compare."""
    _name, schema = random_table(rng, database)
    column = rng.choice(schema)[0]
    value = ("NULL" if rng.random() < 0.1 else render_literal(
        rng.choice(TYPE_POOLS[rng.choice(list(TYPE_POOLS))])))
    rest = random_condition(rng, schema)
    if rng.random() < 0.3:
        other, type_name = rng.choice(schema)
        rest = f"{other} < {3 if type_name == 'TEXT' else repr('zz')} AND {rest}"
    return random_select(rng, schema,
                         where=f" WHERE {column} = {value} AND {rest}")


def generated_cases(seeds, cases_per_seed: int, build):
    """``(label, database, sql)`` for every case one generator draws."""
    for seed in seeds:
        rng = random.Random(seed)
        for case in range(cases_per_seed):
            database = Database(f"diff_{seed}_{case}")
            yield f"seed={seed} case={case}", database, build(rng, database)


def twin(database: Database, indexed: bool) -> Database:
    """``database`` with every column of every table indexed, or with
    none (dropping what the generator declared)."""
    for name in database.table_names():
        table = database.require_table(name)
        if indexed:
            for column in table.column_names():
                table.create_index(column)
        else:
            table._indexes.clear()
    return database


def assert_engines_agree(cases) -> None:
    for label, database, sql in cases:
        expected = run_engine(database, sql, "row")
        actual = run_engine(database, sql, "columnar")
        assert actual == expected, (
            f"{label}\nsql: {sql}\n"
            f"row:      {expected}\ncolumnar: {actual}")


class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_engines_agree_on_generated_cases(self, seed):
        assert_engines_agree(
            generated_cases([seed], CASES_PER_SEED, single_table_case))


class TestJoinDifferential:
    @pytest.mark.parametrize("seed", JOIN_SEEDS)
    def test_engines_agree_on_generated_joins(self, seed):
        assert_engines_agree(
            generated_cases([seed], JOIN_CASES_PER_SEED, join_case))

    def test_generator_covers_the_join_shapes(self):
        """The generator must keep producing every shape the issue
        names, answers and errors both, or the suite above proves less
        than it says."""
        answers, errors, two_joins = 0, set(), 0
        shapes = dict.fromkeys(
            ["LEFT JOIN", "INNER JOIN", " OR ", "GROUP BY", "HAVING",
             "DISTINCT", "SELECT *", "LIMIT", "ORDER BY"], 0)
        for _label, database, sql in generated_cases(
                JOIN_SEEDS, JOIN_CASES_PER_SEED, join_case):
            for shape in shapes:
                shapes[shape] += shape in sql
            two_joins += sql.count(" ON ") == 2
            outcome = run_engine(database, sql, "row")
            if outcome[0] == "error":
                errors.add(outcome[2].split(" ")[0])
            else:
                answers += bool(outcome[1])
        assert all(shapes.values()), shapes
        assert two_joins >= 30
        assert answers >= 100
        assert {"unknown", "ambiguous", "cannot"} <= errors


class TestIndexTwins:
    """Which indexes exist never changes an answer or an error: the
    corpus runs on an all-indexed twin and an unindexed one (which the
    columnar engine indexes on first use), under both engines."""

    @pytest.mark.parametrize("seeds, count, build", [
        (SEEDS, CASES_PER_SEED, single_table_case),
        (JOIN_SEEDS, JOIN_CASES_PER_SEED, join_case)],
        ids=["single_table", "join"])
    def test_twins_agree_on_generated_cases(self, seeds, count, build):
        self.check_twins(generated_cases(seeds, count, build),
                         generated_cases(seeds, count, build))

    def test_twins_agree_on_leading_equalities(self):
        seeded = self.check_twins(
            generated_cases(SEEDS, CASES_PER_SEED, seeded_case),
            generated_cases(SEEDS, CASES_PER_SEED, seeded_case))
        assert seeded >= 300  # columnar runs that answered from a seed

    def check_twins(self, cases, same_cases) -> int:
        """Run every case on both twins under both engines; the number
        of columnar answers that came from a seed."""
        seeded = 0
        for (label, indexed, sql), (_label, plain, _sql) in zip(
                cases, same_cases):
            twin(indexed, True)
            twin(plain, False)
            outcomes = []
            for database in (plain, indexed):
                for engine in ("row", "columnar"):
                    outcomes.append(run_engine(database, sql, engine))
                    plan = database.last_plan
                    seeded += bool(plan and "index seed" in plan.render())
            assert all(o == outcomes[0] for o in outcomes), (
                f"{label}\nsql: {sql}\n" + "\n".join(map(str, outcomes)))
            assert_indexes_current(plain)
        return seeded


class TestRowExecutorOffTheQueryPath:
    def test_no_columnar_select_reaches_the_row_execute(self, monkeypatch):
        """The whole generated SELECT corpus, joins included, with the
        row executor's entry point booby-trapped."""
        corpus = [(label, database, sql, run_engine(database, sql, "row"))
                  for seeds, count, build in (
                      (SEEDS, CASES_PER_SEED, single_table_case),
                      (JOIN_SEEDS, JOIN_CASES_PER_SEED, join_case))
                  for label, database, sql in generated_cases(
                      seeds, count, build)]

        def trapped(*_args, **_kwargs):
            raise AssertionError("a columnar SELECT reached the row executor")

        from repro.sources.relational import database as database_module
        from repro.sources.relational import sql as sql_package
        from repro.sources.relational.sql import executor
        for module in (database_module, sql_package, executor):
            monkeypatch.setattr(module, "execute", trapped)
        # ... and the row SELECT itself, however it might be reached
        monkeypatch.setattr(executor, "_execute_select", trapped)
        assert len(corpus) >= 480
        for label, database, sql, expected in corpus:
            assert run_engine(database, sql, "columnar") == expected, (
                f"{label}\nsql: {sql}")

    def test_join_select_and_dml_never_build_the_row_view(self):
        database = Database("late")
        database.executescript("""
        CREATE TABLE t (id INTEGER, uid INTEGER, x REAL);
        CREATE TABLE u (id INTEGER, name TEXT);
        CREATE INDEX ON t (id);
        INSERT INTO t (id, uid, x) VALUES (1, 1, 1.5), (2, 2, 2.5),
                                          (3, NULL, 3.5), (4, 9, 4.5);
        INSERT INTO u (id, name) VALUES (1, 'one'), (2, 'two');
        """)
        assert database.execute(
            "SELECT u.name FROM t JOIN u ON t.uid = u.id "
            "WHERE t.x > 2.0 ORDER BY t.id").rows == [("two",)]
        assert database.execute(
            "SELECT u.name, COUNT(*) AS n FROM t LEFT JOIN u "
            "ON t.uid = u.id AND u.id < 2 GROUP BY u.name").rows == [
                ("one", 1), (None, 3)]
        assert database.execute(
            "UPDATE t SET x = 9.0 WHERE uid = 2").rows == [(1,)]
        assert database.execute("DELETE FROM t WHERE x > 4.0").rows == [(2,)]
        for name in ("t", "u"):
            assert database.require_table(name)._rows_cache is None
        # the index over the untouched column survived both statements
        assert database.execute(
            "SELECT id, x FROM t WHERE id = 3").rows == [(3, 3.5)]
        assert "index seed" in database.explain("SELECT x FROM t WHERE id = 3")


class TestDmlDifferential:
    """UPDATE / DELETE pick their rows through the vector filter on the
    columnar engine and through the row view on the oracle; the tables
    they leave behind must be the same."""

    @pytest.mark.parametrize("seed", range(200, 210))
    def test_engines_leave_identical_tables(self, seed):
        """... on the database as drawn, and on its indexed and
        unindexed twins."""
        for case in range(6):
            outcomes = []
            for engine, indexed in [(engine, indexed)
                                    for engine in ("row", "columnar")
                                    for indexed in (None, True, False)]:
                rng = random.Random(seed * 100 + case)  # same draw again
                database = Database(f"dml_{engine}", engine=engine)
                _name, schema = random_table(rng, database)
                if indexed is not None:
                    twin(database, indexed)
                name, type_name = rng.choice(schema)
                value = render_literal(rng.choice(TYPE_POOLS[type_name]))
                where = (f" WHERE {random_condition(rng, schema)}"
                         if rng.random() < 0.85 else "")
                statements = [f"UPDATE t SET {name} = {value}{where}",
                              f"DELETE FROM t{where}"]
                rng.shuffle(statements)
                probes = ["SELECT * FROM t"] + [
                    f"SELECT * FROM t WHERE {column} = "
                    f"{render_literal(rng.choice(TYPE_POOLS[t]))}"
                    for column, t in schema]  # one of them reads the index
                outcomes.append([run_engine(database, sql, engine)
                                 for sql in statements[:1] + probes
                                 + statements[1:] + probes])
                assert_indexes_current(database)
            assert all(o == outcomes[0] for o in outcomes), (
                seed, case, statements)


class TestDifferentialCornerShapes:
    """Deterministic shapes the random generator may only rarely hit."""

    def fresh(self) -> Database:
        database = Database("corner")
        database.executescript("""
        CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BOOLEAN);
        INSERT INTO t (i, r, s, b) VALUES (1, 1.5, 'alpha', TRUE);
        INSERT INTO t (i, r, s, b) VALUES (2, NULL, 'beta', FALSE);
        INSERT INTO t (i, r, s, b) VALUES (NULL, 2.5, NULL, NULL);
        INSERT INTO t (i, r, s, b) VALUES (1, 1.5, 'alpha', TRUE);
        """)
        return database

    def check(self, sql: str):
        database = self.fresh()
        assert (run_engine(database, sql, "columnar")
                == run_engine(database, sql, "row")), sql

    def test_empty_table_star(self):
        database = Database("empty")
        database.execute("CREATE TABLE e (x INTEGER)")
        for sql in ("SELECT * FROM e", "SELECT x FROM e ORDER BY x",
                    "SELECT COUNT(*) FROM e", "SELECT x FROM e GROUP BY x"):
            assert (run_engine(database, sql, "columnar")
                    == run_engine(database, sql, "row")), sql

    def test_distinct_with_order_by_keeps_pairing(self):
        self.check("SELECT DISTINCT i, s FROM t ORDER BY r DESC")

    def test_duplicate_rows_distinct(self):
        self.check("SELECT DISTINCT i, r, s, b FROM t")

    def test_order_by_unprojected_column(self):
        self.check("SELECT s FROM t ORDER BY i DESC, r")

    def test_aggregates_over_nulls(self):
        self.check("SELECT COUNT(i) AS c, SUM(i) AS s, AVG(r) AS a, "
                   "MIN(s) AS lo, MAX(s) AS hi FROM t")

    def test_group_by_null_keys(self):
        self.check("SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY n DESC")

    def test_like_and_in_on_nulls(self):
        self.check("SELECT i FROM t WHERE s LIKE 'a%' OR i IN (2)")
        self.check("SELECT i FROM t WHERE s NOT IN ('alpha')")

    def test_overflow_promoted_integers(self):
        database = self.fresh()
        database.execute(f"INSERT INTO t (i) VALUES ({2 ** 80})")
        sql = f"SELECT i FROM t WHERE i >= {2 ** 80}"
        assert (run_engine(database, sql, "columnar")
                == run_engine(database, sql, "row")) and \
            run_engine(database, sql, "columnar")[1] == [(2 ** 80,)]

    def test_incomparable_types_raise_identically(self):
        self.check("SELECT i FROM t WHERE s > 3")

    def test_indexed_seed_matches_full_scan(self):
        database = self.fresh()
        database.execute("CREATE INDEX ON t (i)")
        sql = "SELECT s FROM t WHERE i = 1 AND b = TRUE"
        assert (run_engine(database, sql, "columnar")
                == run_engine(database, sql, "row"))
        plan = database.explain(sql)
        assert "index seed" in plan


class TestIndexSeed:
    """Statements on the edge of the seed rule.  Each answers (or raises)
    alike on both engines and both twins, and the columnar scan seeds
    exactly when the leading top-level AND conjunct is ``col = literal``
    over the base table with a non-NULL literal, and runs first."""

    SEEDED = [
        "SELECT s FROM t WHERE i = '7'",      # TEXT literal, INTEGER column
        "SELECT i FROM t WHERE s = 7",        # INTEGER literal, TEXT column
        "SELECT i FROM t WHERE b = 1",
        "SELECT i FROM t WHERE b = TRUE",
        "SELECT i FROM t WHERE b = 0",
        "SELECT i FROM t WHERE r = 3",        # against a REAL 3.0
        "SELECT s FROM t WHERE i = 7.0",
        "SELECT s FROM t WHERE 7 = i",
        "SELECT s FROM t WHERE t.i = 7 AND r > 2.0",
        "SELECT s FROM t x WHERE x.i = 7",
        # a leading =, then a conjunct that raises on what it keeps ...
        "SELECT i FROM t WHERE i = 7 AND s < 3",
        # ... or that no row reaches
        "SELECT i FROM t WHERE i = 99 AND s < 3",
        "SELECT u.label FROM t JOIN u ON t.i = u.i WHERE t.b = TRUE",
        "SELECT u.label FROM t JOIN u ON t.i = u.i "
        "WHERE t.b = TRUE AND s < 3",
        "SELECT u.label FROM t LEFT JOIN u ON t.i = u.i "
        "WHERE s = 'beta' AND label IS NULL",
    ]
    UNSEEDED = [
        "SELECT i FROM t WHERE i = NULL",
        "SELECT i FROM t WHERE NULL = i",
        "SELECT i FROM t WHERE i = 7 OR s < 3",
        "SELECT i FROM t WHERE NOT (i = 7)",
        "SELECT i FROM t WHERE NOT (i = 7) AND i = 1",
        "SELECT i FROM t WHERE s < 3 AND i = 99",  # = not leading: raises
        "SELECT i FROM t WHERE r > 2.0 AND i = 7",
        "SELECT s FROM t WHERE i = r",
        "SELECT s FROM t x WHERE t.i = 7",         # unknown alias
        # an ambiguous column, a non-equi join: nothing is pushed
        "SELECT label FROM t JOIN u ON t.i = u.i WHERE i = 7",
        "SELECT label FROM t JOIN u ON t.s < u.label WHERE t.i = 7",
        "SELECT label FROM t JOIN u ON t.s < u.label "
        "WHERE t.i = 7 AND t.s < 3",
    ]
    SEEDED += [
        "UPDATE t SET r = 0.5 WHERE s = 'beta' AND i < 'x'",
        "UPDATE t SET i = NULL WHERE b = TRUE",
        "DELETE FROM t WHERE i = 7 AND s < 3",
        "DELETE FROM t WHERE i = 99 AND s < 3",
    ]
    UNSEEDED += [
        "UPDATE t SET r = 0.5 WHERE i < 'x' AND s = 'beta'",
        "DELETE FROM t WHERE i = NULL",
    ]

    def world(self, indexed: bool) -> Database:
        database = Database("seed")
        database.executescript("""
        CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BOOLEAN);
        INSERT INTO t (i, r, s, b) VALUES (7, 3.0, '7', TRUE);
        INSERT INTO t (i, r, s, b) VALUES (1, 1.5, 'alpha', FALSE);
        INSERT INTO t (i, r, s, b) VALUES (NULL, NULL, NULL, NULL);
        INSERT INTO t (i, r, s, b) VALUES (7, 2.5, 'beta', TRUE);
        CREATE TABLE u (i INTEGER, label TEXT);
        INSERT INTO u (i, label) VALUES (7, 'seven'), (1, 'one');
        """)
        return twin(database, indexed)

    def outcomes(self, sql: str, monkeypatch) -> list:
        """Per (twin, engine): the outcome, the table left behind, and
        whether the statement looked up an index (the seed does, built
        or not; nothing else on these paths does)."""
        found = []
        for indexed in (False, True):
            for engine in ("row", "columnar"):
                database = self.world(indexed)
                lookups = []
                original = Table.create_index
                monkeypatch.setattr(
                    Table, "create_index",
                    lambda table, column: lookups.append(column)
                    or original(table, column))
                outcome = run_engine(database, sql, engine)
                monkeypatch.setattr(Table, "create_index", original)
                found.append((outcome, run_engine(database, "SELECT * FROM t",
                                                  "row"), bool(lookups)))
                assert_indexes_current(database)
        assert all(f[:2] == found[0][:2] for f in found), (sql, found)
        return found

    @pytest.mark.parametrize("sql", SEEDED)
    def test_seeded(self, sql, monkeypatch):
        assert [f[2] for f in self.outcomes(sql, monkeypatch)] == [
            False, True] * 2

    @pytest.mark.parametrize("sql", UNSEEDED)
    def test_not_seeded(self, sql, monkeypatch):
        assert not any(f[2] for f in self.outcomes(sql, monkeypatch))

    def test_the_corpus_answers_and_raises(self, monkeypatch):
        """The statements above are not all empty answers."""
        results = [self.outcomes(sql, monkeypatch)[0][0]
                   for sql in self.SEEDED + self.UNSEEDED]
        assert sum(r[0] == "error" for r in results) >= 5
        assert sum(r[0] != "error" and bool(r[1]) for r in results) >= 10


class TestIndexNeverChangesAnOutcome:
    """An index over ``a`` used to seed from the *second* conjunct and
    skip the rows on which the first raises: the SELECT then answered
    ``[]`` on both engines, and the columnar UPDATE / DELETE reported 0
    rows instead of raising."""

    STATEMENTS = ["SELECT x FROM t WHERE b < 'x' AND a = 99",
                  "UPDATE t SET x = 1 WHERE b < 'x' AND a = 99",
                  "DELETE FROM t WHERE b < 'x' AND a = 99"]

    @pytest.mark.parametrize("sql", STATEMENTS)
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    @pytest.mark.parametrize("indexed", [False, True])
    def test_raises_whatever_the_indexes(self, sql, engine, indexed):
        database = Database("bug")
        database.executescript(
            "CREATE TABLE t (a INTEGER, b INTEGER, x INTEGER);"
            "INSERT INTO t (a, b, x) VALUES (1, 0, 0), (2, 1, 0), (3, 2, 0),"
            " (4, 3, 0), (5, 4, 0)")
        if indexed:
            database.execute("CREATE INDEX ON t (a)")
        before = database.execute("SELECT * FROM t").rows
        with pytest.raises(SqlExecutionError, match="cannot compare 0 with 'x'"):
            database.execute(sql, engine=engine)
        assert database.execute("SELECT * FROM t").rows == before
