"""E19 — vectorized columnar SQL execution: row vs columnar engine.

Every extraction rule in the wrapper architecture bottoms out in the
relational engine, so the SELECT executor's speed compounds through
every layer above it.  This benchmark times wide-table scans
(filter + project over a 10-column table) at 10k–100k rows under both
engines and asserts the acceptance floors: the columnar engine must be
**>= 5x** faster than the row-at-a-time oracle on the wide-scan
filter+project shape, and **>= 5x** at every size on the join shape —
the fact table against a 50-row dimension under a 2 %-selective base
predicate, which the columnar engine pushes below its hash join while
the row engine joins every row first.  The ``equality`` shape (``c7 =
3`` keeps 10 % of the rows) is report-only: its columnar scan seeds from
the ``c7`` hash index, built by the first columnar run, which the
correctness check before timing makes.

Both engines read the same :class:`Table`; the row engine scans the
cached row-major view (materialized once, outside the timed region), so
the comparison measures execution strategy, not storage conversion.

``E19_ITERATIONS=1`` puts the benchmark in CI smoke mode (smaller
tables, one run per cell); the default takes the best of 3 runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.bench import ResultTable
from repro.sources.relational import Database

ITERATIONS = int(os.environ.get("E19_ITERATIONS", "3"))
SMOKE = ITERATIONS <= 1
ROW_COUNTS = [2_000, 5_000] if SMOKE else [10_000, 30_000, 100_000]
FLOOR_ROWS = ROW_COUNTS[-1]
N_TEXT_POOL = ["alpha", "beta", "gamma", "delta", "epsilon"]
N_DIM = 50

#: the wide-scan shape the acceptance floor is asserted on
WIDE_SCAN = ("SELECT c1, c3, c5 FROM wide "
             "WHERE c0 > 500 AND c2 LIKE 'a%'")

#: a mapping rule that reaches a second table: c3 is the dimension key,
#: ``c0 < 20`` keeps 2 % of the fact rows
JOIN = ("SELECT dim.label FROM wide JOIN dim ON wide.c3 = dim.id "
        "WHERE wide.c0 < 20")

QUERIES = {
    "filter_project": WIDE_SCAN,
    "join": JOIN,
    "aggregate": ("SELECT c2, COUNT(*) AS n, SUM(c0) AS total "
                  "FROM wide GROUP BY c2 ORDER BY n DESC"),
    "order_by": "SELECT c0, c2 FROM wide WHERE c4 = TRUE "
                "ORDER BY c0 DESC LIMIT 50",
    "equality": "SELECT c1 FROM wide WHERE c7 = 3",
}


def build_table(n_rows: int) -> Database:
    """A 10-column table mixing all four types, deterministic content,
    plus the 50-row dimension its ``c3`` refers to."""
    database = Database("bench")
    database.execute("CREATE TABLE dim (id INTEGER, label TEXT)")
    dim = database.require_table("dim")
    for number in range(N_DIM):
        dim.insert({"id": number, "label": f"dim-{number}"})
    dim.rows  # row-major views are built outside the timed region
    database.execute(
        "CREATE TABLE wide (c0 INTEGER, c1 REAL, c2 TEXT, c3 INTEGER, "
        "c4 BOOLEAN, c5 TEXT, c6 REAL, c7 INTEGER, c8 TEXT, c9 BOOLEAN)")
    table = database.require_table("wide")
    rng = random.Random(7)
    for _ in range(n_rows):
        table.insert({
            "c0": rng.randrange(1000),
            "c1": rng.random() * 100.0,
            "c2": rng.choice(N_TEXT_POOL),
            "c3": rng.randrange(N_DIM),
            "c4": rng.random() < 0.5,
            "c5": rng.choice(N_TEXT_POOL),
            "c6": rng.random(),
            "c7": rng.randrange(10),
            "c8": rng.choice(N_TEXT_POOL),
            "c9": rng.random() < 0.1,
        })
    table.rows  # materialize the row-major view outside the timed region
    return database


def best_of(runs: int, operation) -> float:
    return min(_timed(operation) for _ in range(runs))


def _timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def test_e19_columnar_report():
    table = ResultTable(
        f"E19: row vs columnar SELECT execution (10 columns, "
        f"best of {ITERATIONS})",
        ["query", "rows", "row_s", "columnar_s", "speedup"])
    for n_rows in ROW_COUNTS:
        database = build_table(n_rows)
        for label, sql in QUERIES.items():
            expected = database.execute(sql, engine="row")
            actual = database.execute(sql, engine="columnar")
            assert (expected.columns, expected.rows) == (
                actual.columns, actual.rows), label
            row_seconds = best_of(
                ITERATIONS, lambda: database.execute(sql, engine="row"))
            columnar_seconds = best_of(
                ITERATIONS, lambda: database.execute(sql, engine="columnar"))
            table.add_row(label, n_rows, row_seconds, columnar_seconds,
                          row_seconds / columnar_seconds)
    table.print()


def assert_floor(database: Database, sql: str, n_rows: int) -> None:
    database.execute(sql, engine="row")  # warm caches
    database.execute(sql, engine="columnar")
    row_seconds = best_of(
        max(ITERATIONS, 3), lambda: database.execute(sql, engine="row"))
    columnar_seconds = best_of(
        max(ITERATIONS, 3),
        lambda: database.execute(sql, engine="columnar"))
    speedup = row_seconds / columnar_seconds
    assert speedup >= 5.0, (
        f"columnar speedup {speedup:.2f}x below the 5x floor on {sql!r} "
        f"({n_rows} rows: row={row_seconds:.4f}s "
        f"columnar={columnar_seconds:.4f}s)")


def test_e19_speedup_floor():
    """Acceptance criterion: >= 5x on the wide-scan filter+project."""
    assert_floor(build_table(FLOOR_ROWS), WIDE_SCAN, FLOOR_ROWS)


def test_e19_join_floor():
    """Acceptance criterion: the join shape >= 5x at every size."""
    for n_rows in ROW_COUNTS:
        assert_floor(build_table(n_rows), JOIN, n_rows)
