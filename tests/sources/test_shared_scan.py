"""``execute_rules(rules) == [execute_rule(r) for r in rules]``.

The XML and relational sources run a whole rule set in one call and
share work between the rules — step prefixes of location paths, scanned
and filtered frames of SELECTs.  The oracle is the same source run one
rule at a time (a one-element batch shares nothing), over generated
rule sets; ``S2S_DIFF_SEED`` picks the inputs (CI runs a second value).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import ExtractionError, S2SError
from repro.obs import MetricsRegistry
from repro.sources.relational import Database, RelationalDataSource
from repro.sources.xmlstore import XmlDataSource, XmlDocumentStore

SEED = int(os.environ.get("S2S_DIFF_SEED", "20"))


def drain(source) -> list[dict | None]:
    """Every pending execution digest of the calling thread."""
    digests = []
    while (digest := source.consume_execution_detail()) is not None:
        digests.append(digest)
    return digests


# ---------------------------------------------------------------------------
# XML


FIELDS = ["brand", "model", "price", "case"]


def xml_source(rng: random.Random) -> XmlDataSource:
    """Two documents with the same item shape and different content."""
    store = XmlDocumentStore("inbox")
    for name in ("catalog.xml", "archive.xml"):
        items = []
        for index in range(rng.randint(1, 9)):
            cells = "".join(
                f"<{field}>{rng.choice(['Seiko', 'Casio', ' 10 ', ''])}"
                f"</{field}>"
                for field in FIELDS if rng.random() < 0.9)
            items.append(f'<item id="{index}" currency="EUR">'
                         f"<info>{cells}</info>{cells}</item>")
        store.put(name, f"<catalog>{''.join(items)}</catalog>")
    return XmlDataSource("X", store, default_document="catalog.xml")


def xml_rule(rng: random.Random) -> str:
    field = rng.choice(FIELDS)
    rule = rng.choice([
        f"//item/{field}",                       # the shared record step
        f"//item/info/{field}",                  # two shared steps
        f"/catalog/item/{field}",                # another root
        f"//item[{rng.randint(1, 3)}]/{field}",  # predicates split scans
        f"//item[{field} = 'Seiko']/@id",
        "//item/@currency",
        f"//{field}",
        f"//item/{field} | //item/info/{field}",  # a union runs alone
        f"count(//item/{field})",
        f"for $i in //item where $i/{field} = 'Seiko' return $i/@id",
    ])
    if rng.random() < 0.3:
        rule = f"doc:{rng.choice(['catalog.xml', 'archive.xml'])} {rule}"
    return rule


@pytest.mark.parametrize("round_", range(40))
def test_xml_batch_equals_per_rule(round_):
    rng = random.Random(f"{SEED}-xml-{round_}")
    source = xml_source(rng)
    rules = [xml_rule(rng) for _ in range(rng.randint(1, 9))]
    middle = len(rules) // 2
    rules.insert(middle,
                 "for $i in //item return $i/brand")  # FLWOR in the middle
    assert source.execute_rules(rules) == [source.execute_rule(rule)
                                           for rule in rules], rules


def test_xml_rules_sharing_a_record_step_share_one_scan():
    source = xml_source(random.Random(SEED))
    rules = [f"//item/{field}" for field in FIELDS] + [
        "//item/info/brand", "doc:archive.xml //item/brand",
        "count(//item)", "//item/@currency"]
    source.execute_rules(rules)
    scans = [digest["scan"] for digest in drain(source)]
    # one walk for the six //item rules, one for the other document,
    # one for the function call that evaluates alone
    assert scans == [0, 0, 0, 0, 0, 1, 2, 0]
    source.execute_rule(rules[0])
    assert drain(source) == []  # a single rule shares nothing


def test_xml_plan_is_kept_per_rule_set_not_per_content():
    source = xml_source(random.Random(SEED))
    rules = ["//item/brand", "//item/model"]
    before = source.execute_rules(rules)
    assert tuple(rules) in source._compiled
    source.store.put("catalog.xml",
                     "<catalog><item><brand>Orient</brand>"
                     "<model>Bambino</model></item></catalog>")
    assert source.execute_rules(rules) == [["Orient"], ["Bambino"]] != before


@pytest.mark.parametrize("broken", ["//item/[", "doc:catalog.xml ",
                                    "doc:ghost.xml //item/brand",
                                    "for $i in //item return $j/brand"])
def test_xml_malformed_rule_fails_the_batch_and_only_itself_per_rule(broken):
    source = xml_source(random.Random(SEED))
    rules = ["//item/brand", broken, "//item/model"]
    with pytest.raises(S2SError):
        source.execute_rules(rules)
    assert source.execute_rule(rules[0]) and source.execute_rule(rules[2])
    with pytest.raises(S2SError):
        source.execute_rule(broken)


def test_attribute_column_aligns_with_its_sibling_columns():
    """The silent record loss: an attribute identical on every record
    used to collapse to one value under ``id()`` de-duplication."""
    store = XmlDocumentStore("inbox")
    store.put("c.xml", '<c><i k="1"><n>x</n></i><i k="1"><n>y</n></i>'
                       '<i k="2"><n>z</n></i></c>')
    source = XmlDataSource("X", store)
    assert source.execute_rule("//i/@k") == ["1", "1", "2"]
    assert source.execute_rules(["//i/n", "//i/@k"]) == [
        ["x", "y", "z"], ["1", "1", "2"]]


# ---------------------------------------------------------------------------
# SQL


def sql_source(rng: random.Random, **kwargs) -> RelationalDataSource:
    database = Database("org")
    database.executescript("""
    CREATE TABLE products (id INT, brand TEXT, price REAL, provider_id INT);
    CREATE TABLE providers (id INT, name TEXT, country TEXT);
    """)
    for index in range(3):
        database.execute(
            f"INSERT INTO providers (id, name, country) VALUES "
            f"({index}, 'P{index}', '{rng.choice(['DE', 'JP'])}')")
    for index in range(rng.randint(0, 30)):
        brand = rng.choice(["'Seiko'", "'Casio'", "'Orient'", "NULL"])
        database.execute(
            f"INSERT INTO products (id, brand, price, provider_id) VALUES "
            f"({index}, {brand}, {rng.choice([10.0, 99.5, 250.0])}, "
            f"{rng.randint(0, 3)})")
    return RelationalDataSource("D", database, **kwargs)


WHERES = ["", " WHERE price > 50.0", " WHERE price > 50",
          " WHERE brand = 'Seiko'", " WHERE brand IS NOT NULL AND price < 200.0"]
JOINS = ["", " JOIN providers ON products.provider_id = providers.id",
         " LEFT JOIN providers ON products.provider_id = providers.id"]


def sql_rule(rng: random.Random) -> str:
    join = rng.choice(JOINS)
    columns = ["products.id", "products.brand", "products.price"]
    if join:
        columns += ["providers.name", "providers.country"]
    column = rng.choice(columns)
    rule = f"SELECT {'DISTINCT ' if rng.random() < 0.2 else ''}{column} " \
           f"FROM products{join}{rng.choice(WHERES)}"
    if rng.random() < 0.3:
        rule += f" ORDER BY {rng.choice(columns)}" \
                f"{rng.choice(['', ' DESC'])}"
    if rng.random() < 0.2:
        rule += f" LIMIT {rng.randint(0, 5)}"
    if rng.random() < 0.1:
        rule = f"SELECT COUNT(*) FROM products{join}{rng.choice(WHERES)}"
    return rule


@pytest.mark.parametrize("engine", [None, "row"])
@pytest.mark.parametrize("round_", range(30))
def test_sql_batch_equals_per_rule(round_, engine):
    rng = random.Random(f"{SEED}-sql-{round_}")
    source = sql_source(rng, engine=engine)
    rules = [sql_rule(rng) for _ in range(rng.randint(1, 9))]
    assert source.execute_rules(rules) == [source.execute_rule(rule)
                                           for rule in rules], rules


def test_sql_rules_differing_only_in_projection_share_one_scan():
    registry = MetricsRegistry()
    source = sql_source(random.Random(SEED), metrics=registry)
    rows = len(source.database.require_table("products"))
    where = " WHERE price > 50.0"
    join = " JOIN providers ON products.provider_id = providers.id"
    rules = [f"SELECT products.brand FROM products{where}",
             f"SELECT products.price FROM products{where}",
             "SELECT products.brand FROM products WHERE price > 50",
             f"SELECT providers.name FROM products{join}{where}",
             f"SELECT providers.country FROM products{join}{where} "
             f"ORDER BY products.id DESC",
             f"SELECT products.id FROM products{where}"]
    source.execute_rules(rules)
    digests = drain(source)
    # projection, ORDER BY: shared; WHERE (even 50 vs 50.0), JOIN: not
    assert [d["scan"] for d in digests] == [0, 0, 1, 2, 2, 0]
    assert [d["sql_plan"] for d in digests] == [
        "scan>filter>project", "scan(shared)>filter(shared)>project",
        "scan>filter>project", "scan>filter>hash_join>project",
        "scan(shared)>filter(shared)>hash_join(shared)>order_by>project",
        "scan(shared)>filter(shared)>project"]
    # a shared scan is counted once: three scans of products, one build
    # side of the join
    scanned = registry.value("sql_rows_scanned_total", source="D")
    assert scanned == sum(d["sql_rows_scanned"] for d in digests) \
        == 3 * rows + 3
    assert [d["sql_rows_scanned"] for d in digests][1] == 0
    source.execute_rule(rules[0])
    assert drain(source) == [{"sql_plan": "scan>filter>project",
                              "sql_rows_scanned": rows, "sql_batches": 1}]


def test_sql_shared_plan_renders_as_shared():
    source = sql_source(random.Random(SEED))
    source.execute_rules(["SELECT brand FROM products WHERE price > 50.0",
                          "SELECT price FROM products WHERE price > 50.0"])
    rendered = source.database.last_plan.render()
    assert "batches=0" in rendered.splitlines()[0]
    assert rendered.splitlines()[1].startswith("scan(shared) products")
    assert rendered.splitlines()[2].startswith("filter(shared) ")
    assert rendered.splitlines()[3].startswith("project [price]")


def test_sql_malformed_rule_fails_the_batch_and_only_itself_per_rule():
    source = sql_source(random.Random(SEED))
    for broken in ("SELEKT brand FROM products",
                   "SELECT ghost FROM products",
                   "SELECT brand, price FROM products"):
        rules = ["SELECT brand FROM products", broken,
                 "SELECT price FROM products"]
        with pytest.raises(S2SError):
            source.execute_rules(rules)
        assert drain(source) == []  # nothing left for a fallback to read
        assert source.execute_rule(rules[0]) is not None
        with pytest.raises(S2SError):
            source.execute_rule(broken)


def test_sql_dml_is_never_batched_and_never_runs_in_a_refused_batch():
    source = sql_source(random.Random(SEED))
    before = source.execute_rule("SELECT brand FROM products")
    update = "UPDATE products SET brand = 'Orient' WHERE id >= 0"
    with pytest.raises(ExtractionError, match="only SELECT rules"):
        source.execute_rules(["SELECT brand FROM products", update,
                              "SELECT brand FROM products"])
    # refused before anything ran: the per-rule fallback finds the table
    # as it was, and runs the write exactly once
    assert source.execute_rule("SELECT brand FROM products") == before
    assert source.execute_rules([update]) == [[str(len(before))]]
    assert set(source.execute_rule("SELECT brand FROM products")) <= {
        "Orient"}
