"""Differential test: the relational batch against the frozen 2.25 path.

Since 2.26 ``RelationalDataSource.execute_rules`` runs a rule set as one
plan per scan: each scan runs once with one report, every rule runs only
its own tail over the shared frame, and the ``sql_*`` counters move once
per scan.  Release 2.25 ran each rule through the per-statement path,
kept in :mod:`tests.oracles.sql_batch_2_25`.  Two sources built from the
same seed, one per side, take the same calls; after each call they must
agree on what a caller, a trace or a metrics scrape can see: the
columns or the error raised (type and message), every pending plan
digest, the whole metrics registry's text export, and
``Database.last_plan.render()``.

The rule sets reuse ``tests/sources/test_shared_scan.py``'s source and
rule generator and add ORDER BY, DISTINCT, LIMIT, aggregate, JOIN and
``*`` rules, WHEREs that differ only in a literal's type, an empty
table, and malformed rules.  ``S2S_DIFF_SEED`` picks the inputs (CI
runs a second value).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import S2SError
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter
from repro.sources.relational import database as database_module
from tests.oracles import sql_batch_2_25 as oracle
from tests.sources.test_shared_scan import JOINS, WHERES, drain, sql_rule
from tests.sources.test_shared_scan import sql_source as shared_scan_source

SEED = int(os.environ.get("S2S_DIFF_SEED", "26"))

#: WHEREs alike but for one literal's type: never one scan
TYPED_WHERES = [" WHERE provider_id = 1", " WHERE provider_id = 1.0",
                " WHERE provider_id = TRUE", " WHERE brand = 'Nope'"]
EXTRA_RULES = [
    "SELECT DISTINCT products.brand FROM products ORDER BY products.brand",
    "SELECT products.id FROM products ORDER BY products.price DESC LIMIT 3",
    "SELECT products.brand AS maker FROM products LIMIT 0",
    "SELECT brand FROM products GROUP BY brand",
    "SELECT brand FROM products GROUP BY brand HAVING brand IS NOT NULL",
    "SELECT MAX(price) FROM products",
    "SELECT AVG(products.price) FROM products JOIN providers "
    "ON products.provider_id = providers.id",
    "SELECT * FROM products WHERE price > 1000.0",  # empty: one column "*"
    "SELECT brand FROM archive",
    "SELECT COUNT(*) FROM archive",
    "SELECT * FROM archive",
    "SELECT archive.brand FROM products JOIN archive "
    "ON products.id = archive.id",
    "SELECT archive.brand FROM products LEFT JOIN archive "
    "ON products.id = archive.id",
    "SELECT providers.name FROM products JOIN providers "
    "ON products.provider_id < providers.id",
]
MALFORMED = [
    "SELEKT brand FROM products",
    "SELECT ghost FROM products",
    "SELECT brand, price FROM products",
    "SELECT * FROM providers",
    "SELECT brand FROM ghost",
    "SELECT brand FROM products WHERE brand > 5",
    "SELECT brand, COUNT(*) FROM products GROUP BY brand",
    "UPDATE products SET brand = 'Orient' WHERE id >= 0",
]


def source(seed: str, engine: str | None):
    """The shared-scan suite's source plus an empty table, on its own
    metrics registry."""
    built = shared_scan_source(random.Random(seed), engine=engine,
                               metrics=MetricsRegistry())
    built.database.execute("CREATE TABLE archive (id INT, brand TEXT)")
    return built


def rule(rng: random.Random) -> str:
    pick = rng.random()
    if pick < 0.5:
        return sql_rule(rng)
    if pick < 0.75:
        return rng.choice(EXTRA_RULES)
    column = rng.choice(["products.brand", "products.price"])
    return (f"SELECT {column} FROM products{rng.choice(JOINS)}"
            f"{rng.choice(TYPED_WHERES + WHERES)}")


def seen(source, call) -> dict:
    """Everything a caller can observe of one call."""
    try:
        columns, error = call(), None
    except S2SError as exc:
        columns, error = None, (type(exc).__name__, str(exc))
    plan = source.database.last_plan
    return {"columns": columns, "error": error, "digests": drain(source),
            "metrics": source.metrics.render_text(),
            "last_plan": None if plan is None else plan.render()}


def assert_alike(seed: str, engine: str | None, calls: list[list[str]]):
    new, old = source(seed, engine), source(seed, engine)
    for rules in calls:
        assert seen(new, lambda: new.execute_rules(rules)) == seen(
            old, lambda: oracle.execute_rules(old, rules)), rules


@pytest.mark.parametrize("engine", [None, "row"])
@pytest.mark.parametrize("round_", range(30))
def test_batch_matches_the_frozen_path(round_, engine):
    rng = random.Random(f"{SEED}-batch-{round_}")
    rules = [rule(rng) for _ in range(rng.randint(1, 9))]
    # the set, again (indexes seeded on the first run now exist), and
    # every rule on its own
    assert_alike(f"{SEED}-{round_}", engine,
                 [rules, rules] + [[one] for one in rules])


@pytest.mark.parametrize("broken", MALFORMED)
def test_a_malformed_set_fails_as_the_frozen_path_did(broken):
    rng = random.Random(f"{SEED}-broken-{broken}")
    for engine in (None, "row"):
        rules = [rule(rng) for _ in range(rng.randint(0, 3))]
        rules.insert(rng.randint(0, len(rules)), broken)
        assert_alike(f"{SEED}-{broken}", engine,
                     [rules, [broken], rules + ["SELECT id FROM products"]])


def test_a_scan_that_reads_no_rows_still_has_its_series():
    assert_alike(SEED, None, [["SELECT brand FROM archive",
                               "SELECT id FROM archive"],
                              ["SELECT brand FROM products "
                               "WHERE brand = 'Nope'"]])


def test_the_work_is_per_scan(monkeypatch):
    """k rules over g scan keys: g scans, g increments of each counter
    (2.25 made k of each)."""
    scans, increments = [], []
    real_scan, real_inc = database_module.scan_frame, Counter.inc

    def scan_frame(database, select):
        scans.append(select)
        return real_scan(database, select)

    def inc(counter, amount=1.0, **labels):
        increments.append(counter.name)
        real_inc(counter, amount, **labels)

    monkeypatch.setattr(database_module, "scan_frame", scan_frame)
    monkeypatch.setattr(Counter, "inc", inc)
    built = source(SEED, None)
    where = " WHERE price > 50.0"
    join = " JOIN providers ON products.provider_id = providers.id"
    rules = ([f"SELECT products.{c} FROM products{where}"
              for c in ("id", "brand", "price")]
             + [f"SELECT providers.{c} FROM products{join}{where}"
                for c in ("name", "country")]
             + ["SELECT products.id FROM products WHERE price > 50",
                f"SELECT DISTINCT products.brand FROM products{where}"])
    built.execute_rules(rules)
    assert len(scans) == 3
    assert sorted(increments) == ["sql_batches_total"] * 3 + [
        "sql_rows_scanned_total"] * 3
    scans.clear()
    increments.clear()
    built.execute_rule(rules[0])
    assert (len(scans), len(increments)) == (1, 2)
