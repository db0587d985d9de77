"""E22 — shape-compiled instance generation vs the interpretive oracle.

What a record becomes is fixed by the schema and by which attributes the
record carries, so ``InstanceGenerator.generate`` resolves the ontology
once per record *shape* (the ordered tuple of non-``None`` attribute ids)
instead of once per record.  This benchmark times it against the frozen
interpretive generator (``tests/core/generation_oracle.py``, the
differential oracle) in µs per entity over 100 / 1 000 / 10 000 records,
validation on and off, on three shape mixes:

* ``1 shape`` — every record carries every attribute (what every ledger
  query looks like: one plan per call);
* ``4 shapes`` — four NULL masks, round-robin;
* ``all-distinct`` — every record a different NULL mask, the adversarial
  opposite: a plan is compiled per record and only the reasoner's
  per-class tables amortize.

A second table times the WHERE clause: a condition that keeps one record
in ten, handed to ``generate(conditions=...)`` (coerce by column, mask,
build the survivors) against generate-everything-then-filter on both
sides (``tests/core/answer_oracle.py`` and the unconditioned compiled
call plus the handler's filter).

Floors: **>= 8x** on the homogeneous 1 000-record row (it was 3x while
every individual was validated one by one), **>= 0.8x** (i.e. not
slower, within noise) on the all-distinct 1 000-record row, and the
10 %-selective masked call at **<= 0.6x** the cost of generating all
1 000 records.  Every cell first asserts the two sides return identical
results.

``E22_ITERATIONS=1`` puts the benchmark in CI smoke mode (no 10 000-record
rows, one run per cell); the default takes the best of 5 runs.
"""

from __future__ import annotations

import os
import time

from repro.bench import ResultTable
from repro.core.extractor.manager import ExtractionOutcome
from repro.core.extractor.records import RawFragment, SourceRecordSet
from repro.core.instances import InstanceGenerator
from repro.ids import AttributePath
from repro.ontology import OntologySchema
from repro.ontology.builders import watch_domain_ontology
from repro.core.query.parser import parse_s2sql
from repro.core.query.planner import QueryPlanner
from tests.core.answer_oracle import oracle_answer
from tests.core.generation_oracle import oracle_generate, snapshot

ITERATIONS = int(os.environ.get("E22_ITERATIONS", "5"))
SMOKE = ITERATIONS <= 1
RECORD_COUNTS = [100, 1_000] if SMOKE else [100, 1_000, 10_000]
FLOOR_RECORDS = 1_000
MIXES = ("1 shape", "4 shapes", "all-distinct")

#: ``brand`` is never masked so every record keeps a primary; the other
#: 14 attributes give 2**14 - 1 >= 10 000 distinct NULL masks and cover
#: every XSD range
ALWAYS = ("thing.product.brand", "Seiko")
MASKABLE = [
    ("thing.product.model", "SKX007"),
    ("thing.product.price", "199.50"),
    ("thing.product.sku", "SK-0007"),
    ("thing.product.stock", "12"),
    ("thing.product.discontinued", "no"),
    ("thing.product.watch.case", "stainless-steel"),
    ("thing.product.watch.movement", "automatic"),
    ("thing.product.watch.water_resistance", "200"),
    ("thing.product.watch.diameter", "42.5"),
    ("thing.product.watch.released", "2006-07-04"),
    ("thing.provider.name", "Acme Trading"),
    ("thing.provider.country", "PT"),
    ("thing.provider.url", "http://acme.example/"),
    ("thing.provider.rating", "4.5"),
]


def build_schema() -> OntologySchema:
    ontology = watch_domain_ontology()
    for class_name, attribute, range_name in (
            ("product", "sku", "string"), ("product", "stock", "integer"),
            ("product", "discontinued", "boolean"),
            ("watch", "diameter", "double"), ("watch", "released", "date"),
            ("provider", "url", "anyURI"), ("provider", "rating", "decimal")):
        ontology.add_attribute(class_name, attribute, range_name)
    return OntologySchema(ontology)


def mask_of(mix: str, index: int) -> int:
    """Bit ``k`` set = maskable attribute ``k`` is NULL in record ``index``."""
    if mix == "1 shape":
        return 0
    if mix == "4 shapes":
        return (0, 0b1, 0b110000, 0b11100000000000)[index % 4]
    return index + 1


#: keeps one record in ten of ``build_outcome(..., selective=True)``
SELECTIVE_QUERY = 'SELECT product WHERE brand = "Casio"'


def build_outcome(mix: str, n_records: int,
                  *, selective: bool = False) -> ExtractionOutcome:
    record_set = SourceRecordSet("bench")
    record_set.add(RawFragment(
        AttributePath.parse(ALWAYS[0]), "bench",
        ["Casio" if selective and index % 10 == 0 else ALWAYS[1]
         for index in range(n_records)]))
    for bit, (attribute_id, value) in enumerate(MASKABLE):
        record_set.add(RawFragment(
            AttributePath.parse(attribute_id), "bench",
            [None if mask_of(mix, index) >> bit & 1 else value
             for index in range(n_records)]))
    return ExtractionOutcome(record_sets={"bench": record_set})


def timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def measure(schema: OntologySchema, mix: str, n_records: int,
            validate: bool, runs: int) -> tuple[float, float, int]:
    """(oracle µs/entity, compiled µs/entity, shapes) for one cell."""
    outcome = build_outcome(mix, n_records)
    generator = InstanceGenerator(schema, validate=validate)
    compiled = generator.generate(outcome, "product")
    expected = oracle_generate(schema, outcome, "product", validate=validate)
    assert snapshot(compiled) == snapshot(expected), (mix, n_records)
    assert len(compiled.entities) == n_records and compiled.errors.ok
    oracle_seconds = compiled_seconds = float("inf")
    for _ in range(runs):  # alternated, so drift hits both sides alike
        oracle_seconds = min(oracle_seconds, timed(lambda: oracle_generate(
            schema, outcome, "product", validate=validate)))
        compiled_seconds = min(compiled_seconds, timed(
            lambda: generator.generate(outcome, "product")))
    return (oracle_seconds * 1e6 / n_records,
            compiled_seconds * 1e6 / n_records, compiled.shapes)


def test_e22_generation_report():
    schema = build_schema()
    table = ResultTable(
        f"E22: instance generation, interpretive oracle vs shape-compiled "
        f"({len(MASKABLE) + 1} attributes/record, best of {ITERATIONS})",
        ["mix", "records", "validate", "shapes", "oracle_us_per_entity",
         "compiled_us_per_entity", "speedup"])
    for mix in MIXES:
        for n_records in RECORD_COUNTS:
            for validate in (True, False):
                oracle_us, compiled_us, shapes = measure(
                    schema, mix, n_records, validate, ITERATIONS)
                table.add_row(mix, n_records, validate, shapes, oracle_us,
                              compiled_us, oracle_us / compiled_us)
    table.print()


def measure_selective(schema: OntologySchema, mix: str, n_records: int,
                      validate: bool, runs: int
                      ) -> tuple[float, float, float]:
    """(oracle generate-then-filter, compiled generate-everything, masked
    generate) in ms for one 10 %-selective query."""
    outcome = build_outcome(mix, n_records, selective=True)
    plan = QueryPlanner(schema).plan(parse_s2sql(SELECTIVE_QUERY))
    generator = InstanceGenerator(schema, validate=validate)
    masked = generator.generate(outcome, "product",
                                conditions=plan.conditions)
    entities, errors = oracle_answer(schema, outcome, plan, validate=validate)
    assert snapshot(masked) == snapshot(
        type(masked)(entities=entities, errors=errors)), (mix, n_records)
    assert len(masked.entities) == n_records // 10
    oracle_s = everything_s = masked_s = float("inf")
    for _ in range(runs):
        oracle_s = min(oracle_s, timed(lambda: oracle_answer(
            schema, outcome, plan, validate=validate)))
        everything_s = min(everything_s, timed(
            lambda: generator.generate(outcome, "product")))
        masked_s = min(masked_s, timed(lambda: generator.generate(
            outcome, "product", conditions=plan.conditions)))
    return oracle_s * 1e3, everything_s * 1e3, masked_s * 1e3


def test_e22_selective_report():
    schema = build_schema()
    table = ResultTable(
        f"E22: a condition keeping 1 record in 10 — generate, then filter "
        f"vs mask, then build (best of {ITERATIONS})",
        ["mix", "records", "validate", "oracle_then_filter_ms",
         "generate_all_ms", "masked_ms", "masked_share_of_all"])
    for mix in ("1 shape", "4 shapes"):
        for n_records in RECORD_COUNTS:
            for validate in (True, False):
                oracle_ms, everything_ms, masked_ms = measure_selective(
                    schema, mix, n_records, validate, ITERATIONS)
                table.add_row(mix, n_records, validate, oracle_ms,
                              everything_ms, masked_ms,
                              masked_ms / everything_ms)
    table.print()


def test_e22_selective_floor():
    """Acceptance criterion: a query keeping one record in ten pays at
    most 0.6 of what generating every record costs (measured ~0.4)."""
    _oracle_ms, everything_ms, masked_ms = measure_selective(
        build_schema(), "1 shape", FLOOR_RECORDS, True, max(ITERATIONS, 3))
    assert masked_ms <= 0.6 * everything_ms, (
        f"masked {masked_ms:.2f} ms vs {everything_ms:.2f} ms for all "
        f"{FLOOR_RECORDS} records")


def assert_floor(mix: str, floor: float) -> None:
    oracle_us, compiled_us, shapes = measure(
        build_schema(), mix, FLOOR_RECORDS, True, max(ITERATIONS, 3))
    assert shapes == (1 if mix == "1 shape" else FLOOR_RECORDS)
    speedup = oracle_us / compiled_us
    assert speedup >= floor, (
        f"{mix}: {speedup:.2f}x below the {floor}x floor at "
        f"{FLOOR_RECORDS} records (oracle {oracle_us:.1f} us/entity, "
        f"compiled {compiled_us:.1f} us/entity)")


def test_e22_homogeneous_floor():
    """Acceptance criterion: >= 8x when every record shares one shape."""
    assert_floor("1 shape", 8.0)


def test_e22_all_distinct_floor():
    """Acceptance criterion: not slower (>= 0.8x) when no two records
    share a shape — the per-class tables still amortize."""
    assert_floor("all-distinct", 0.8)
