"""Batched execution: shared-scan planning, projection, scheduler.

The contract under test is strict equivalence: ``query_many(queries)``
returns results instance-identical to ``[query(q) for q in queries]`` —
same entities, same degraded flags, same per-query health visibility —
while visiting every data source once per batch instead of once per
query.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.core.instances import RecordAssembler
from repro.core.query import QueryBatch, QueryScheduler
from repro.core.query.parser import parse_s2sql
from repro.core.query.planner import QueryPlanner
from repro.core.query.scheduler import _Item
from repro.config import ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.errors import QueryError
from repro.obs import MetricsRegistry, Tracer
from repro.ontology.builders import watch_domain_ontology
from repro.sources.flaky import FlakySource
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario

QUERIES = [
    'SELECT product WHERE case = "stainless-steel"',
    'SELECT product WHERE brand = "Seiko"',
    "SELECT provider",
    'SELECT watch WHERE water_resistance > 50',
]


def result_key(result):
    """Order-insensitive fingerprint of a result's entities."""
    return sorted((entity.primary.class_name, str(entity.value("brand")),
                   str(entity.value("model")), entity.source_id)
                  for entity in result.entities)


def assert_equivalent(sequential, batched):
    assert len(sequential) == len(batched)
    for left, right in zip(sequential, batched):
        assert result_key(left) == result_key(right)
        assert left.serialize("json") == right.serialize("json")
        assert left.degraded == right.degraded
        assert sorted(left.health) == sorted(right.health)
        assert [str(p) for p in left.extraction.missing_attributes] \
            == [str(p) for p in right.extraction.missing_attributes]


def watch_db():
    db = Database("watchdb")
    db.executescript("""
    CREATE TABLE watches (brand TEXT, price_cents INTEGER);
    INSERT INTO watches (brand, price_cents) VALUES
      ('Seiko', 19900), ('Casio', 1550), ('Tissot', 52500);
    """)
    return db


def counting_world():
    """One healthy database wrapped in a call-counting FlakySource."""
    s2s = S2SMiddleware(watch_domain_ontology())
    flaky = FlakySource(RelationalDataSource("DB_1", watch_db()),
                        failure_rate=0.0, seed=1)
    s2s.register_source(flaky)
    s2s.register_attribute(("product", "brand"),
                           ExtractionRule.sql("SELECT brand FROM watches"),
                           "DB_1")
    s2s.register_attribute(("product", "price"),
                           ExtractionRule.sql(
                               "SELECT price_cents FROM watches"),
                           "DB_1")
    return s2s, flaky


class TestBatchPlanner:
    def test_shared_attributes_are_first_seen_union(self):
        schema = S2SMiddleware(watch_domain_ontology()).schema
        planner = QueryPlanner(schema)
        parsed = [parse_s2sql("SELECT provider"),
                  parse_s2sql("SELECT product")]
        batch = QueryBatch(planner).plan(parsed)
        assert len(batch) == 2
        shared = [str(path) for path in batch.shared_attributes]
        # provider's two attributes come first (first-seen order), then
        # product's remaining six — no duplicates.
        assert shared[:2] == ["thing.provider.country",
                              "thing.provider.name"]
        assert len(shared) == len(set(shared)) == 8
        # 2 + 8 attributes requested, 8 scanned.
        assert batch.amortization == pytest.approx(10 / 8)

    def test_malformed_query_fails_batch_at_plan_time(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        with pytest.raises(QueryError, match="does not exist"):
            s2s.query_many(["SELECT product", "SELECT nonexistent"])

    def test_empty_batch_returns_empty_list(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        assert s2s.query_many([]) == []


class TestSharedScan:
    def test_each_source_scanned_once_per_batch(self):
        s2s, flaky = counting_world()
        queries = ["SELECT product",
                   'SELECT product WHERE brand = "Seiko"',
                   "SELECT watch"]
        sequential = [s2s.query(q) for q in queries]
        assert flaky.attempts == 6  # 3 queries x 2 mapped entries
        batched = s2s.query_many(queries)
        assert flaky.attempts == 8  # + 1 shared scan x 2 entries
        assert_equivalent(sequential, batched)

    def test_batch_equals_sequential_on_demo_world(self):
        scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        sequential = [s2s.query(q) for q in QUERIES]
        assert_equivalent(sequential, s2s.query_many(QUERIES))

    def test_batch_respects_merge_key(self):
        scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        key = ["brand", "model"]
        sequential = [s2s.query(q, merge_key=key) for q in QUERIES]
        assert_equivalent(sequential,
                          s2s.query_many(QUERIES, merge_key=key))

    def test_results_share_batch_trace_and_elapsed(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(tracer=Tracer(),
                                        metrics=MetricsRegistry())
        results = s2s.query_many(["SELECT product", "SELECT provider"])
        assert results[0].trace is results[1].trace
        assert results[0].trace.root.name == "batch"
        assert results[0].elapsed_seconds == results[1].elapsed_seconds
        # One scan span serves both queries.
        assert len(results[0].trace.find_all("scan")) == 1
        assert len(results[0].trace.find_all("query")) == 2


class TestProjectionIsolation:
    """A degraded source degrades only the queries whose plans need it."""

    def make_split_world(self):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              jitter="none"),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_seconds=60.0),
            clock=clock)
        s2s = S2SMiddleware(watch_domain_ontology(), resilience=config,
                            metrics=MetricsRegistry())
        # Product attributes live on a hard-down source...
        s2s.register_source(FlakySource(
            RelationalDataSource("DB_P", watch_db()),
            failure_rate=1.0, seed=3, clock=clock))
        s2s.register_attribute(
            ("product", "brand"),
            ExtractionRule.sql("SELECT brand FROM watches"), "DB_P")
        # ...provider attributes on a healthy one.
        vendors = Database("vendors")
        vendors.executescript("""
        CREATE TABLE orgs (name TEXT, country TEXT);
        INSERT INTO orgs (name, country) VALUES ('Lusitania', 'PT');
        """)
        s2s.register_source(RelationalDataSource("DB_V", vendors))
        s2s.register_attribute(
            ("provider", "name"),
            ExtractionRule.sql("SELECT name FROM orgs"), "DB_V")
        s2s.register_attribute(
            ("provider", "country"),
            ExtractionRule.sql("SELECT country FROM orgs"), "DB_V")
        return s2s

    def test_degradation_does_not_leak_across_queries(self):
        s2s = self.make_split_world()
        product, provider = s2s.query_many(
            ["SELECT product", "SELECT provider"])
        # The product plan needs DB_P, which is down: degraded.
        assert product.degraded
        assert "DB_P" in product.health
        # The provider plan never touches DB_P: clean answer, and DB_P's
        # failure is invisible in its health and problem channels.
        assert not provider.degraded
        assert len(provider) == 1
        assert "DB_P" not in provider.health
        assert all(problem.source_id != "DB_P"
                   for problem in provider.extraction.problems)

    def test_projection_matches_standalone_under_failure(self):
        batched = self.make_split_world().query_many(
            ["SELECT product", "SELECT provider"])
        fresh = self.make_split_world()
        sequential = [fresh.query("SELECT product"),
                      fresh.query("SELECT provider")]
        assert_equivalent(sequential, batched)


class TestBatchMetrics:
    def test_batch_counters_and_histograms(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        registry = MetricsRegistry()
        s2s = scenario.build_middleware(metrics=registry)
        results = s2s.query_many(QUERIES)
        assert registry.value("batches_total") == 1
        assert registry.value("queries_total") == len(QUERIES)
        per_scan = registry.get("queries_per_scan")
        assert per_scan.count() == 1
        assert per_scan.sum() == len(QUERIES)
        assert registry.get("batch_seconds").count() == 1
        assert registry.value("entities_returned_total") \
            == sum(len(result) for result in results)

    def test_duplicate_queries_generated_once(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        registry = MetricsRegistry()
        s2s = scenario.build_middleware(tracer=Tracer(), metrics=registry)
        queries = ["SELECT product"] * 5 + ["SELECT provider"]
        results = s2s.query_many(queries)
        # 4 duplicates answered from their sibling's generation...
        assert registry.value("batch_query_dedup_total") == 4
        # ...so the trace holds one query span per *distinct* query.
        assert len(results[0].trace.find_all("query")) == 2
        assert results[0].trace.find("plan").attributes["distinct"] == 2
        # Results stay independent: mutating one answer's entity list
        # must not leak into its duplicate.
        results[0].entities.clear()
        assert len(results[1]) == 4


class TestScheduler:
    def test_map_matches_sequential(self):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        sequential = [s2s.query(q) for q in QUERIES]
        with s2s.scheduler(max_batch_size=8) as scheduler:
            assert_equivalent(sequential, scheduler.map(QUERIES))

    def test_submit_returns_futures_in_any_interleaving(self):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        with s2s.scheduler(max_batch_size=2, max_workers=3) as scheduler:
            futures = [scheduler.submit(q) for q in QUERIES * 3]
            results = [future.result(timeout=30) for future in futures]
        sequential = [s2s.query(q) for q in QUERIES]
        for index, result in enumerate(results):
            assert result_key(result) \
                == result_key(sequential[index % len(QUERIES)])

    def test_malformed_query_fails_only_its_own_future(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        with s2s.scheduler() as scheduler:
            good = scheduler.submit("SELECT product")
            bad = scheduler.submit("SELECT nonexistent")
            also_good = scheduler.submit("SELECT provider")
            assert len(good.result(timeout=30)) > 0
            with pytest.raises(QueryError, match="does not exist"):
                bad.result(timeout=30)
            assert also_good.result(timeout=30) is not None

    def test_cobatched_neighbours_survive_batch_failure(self):
        """Deterministic fallback check: a batch containing a bad query
        re-runs individually, failing only the bad future."""
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        scheduler = QueryScheduler(s2s.query_handler, max_workers=1)
        try:
            batch = [_Item("SELECT product", None),
                     _Item("SELECT nonexistent", None),
                     _Item("SELECT provider", None)]
            scheduler._execute(batch)
            assert len(batch[0].future.result(timeout=0)) > 0
            with pytest.raises(QueryError):
                batch[1].future.result(timeout=0)
            assert batch[2].future.result(timeout=0) is not None
        finally:
            scheduler.close()

    def test_different_merge_keys_are_not_cobatched(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        scheduler = QueryScheduler(s2s.query_handler, max_workers=1)
        scheduler.close()  # workers gone: queue manipulation is race-free
        scheduler._queue.extend([
            _Item("SELECT product", ["brand"]),
            _Item("SELECT product", ["brand"]),
            _Item("SELECT product", None)])
        first = scheduler._take_batch()
        assert [item.merge_key for item in first] == [["brand"], ["brand"]]
        second = scheduler._take_batch()
        assert [item.merge_key for item in second] == [None]

    def test_submit_after_close_raises(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        scheduler = s2s.scheduler()
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("SELECT product")

    def test_close_drains_pending_queries(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        scheduler = s2s.scheduler(max_batch_size=4, max_workers=1)
        futures = [scheduler.submit("SELECT product") for _ in range(6)]
        scheduler.close()  # wait=True: queue fully drained
        for future in futures:
            assert len(future.result(timeout=0)) > 0

    def test_invalid_configuration_rejected(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        with pytest.raises(ValueError):
            s2s.scheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            s2s.scheduler(max_workers=0)


# -- one answer step, every way in ------------------------------------------

MATRIX_BATCH = ['SELECT product WHERE brand = "Seiko"',
                "SELECT product WHERE price > 100",
                'SELECT product WHERE brand = "Seiko"']


def matrix_world(mode: str, registry: MetricsRegistry) -> S2SMiddleware:
    """A fresh world per execution shape (a write-through fold would
    otherwise turn the next shape's live query into a store hit).  One
    database publishes uncoercible prices, so every mode reports error
    entries; the ``live`` world also has one source hard-down, so its
    answers are degraded."""
    scenario = B2BScenario(n_sources=4, n_products=24, seed=7)
    database = next(org for org in scenario.organizations
                    if org.source_type == "database")
    database.database.execute("UPDATE products SET price = 'n/a'")
    clock = FakeClock()
    s2s = scenario.build_middleware(
        store=mode != "live", tracer=Tracer(), metrics=registry,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1), breaker=None,
            failover=False, clock=clock))
    if mode == "live":
        down = scenario.organizations[-1].source_id
        s2s.source_repository.register(
            FlakySource(s2s.source_repository.get(down), failure_rate=1.0,
                        clock=clock), replace=True)
    if mode == "store-served":
        s2s.materialize("SELECT product")
    return s2s


def answer_facts(result):
    return (result_key(result),
            sorted(str(entry) for entry in result.errors.entries),
            result.degraded, result.store_hit, result.store_stale)


def test_siblings_read_on_threads_share_one_build(monkeypatch):
    """A live batch's duplicates share the first answer's blocks: read
    on many threads at once, the entities are built once, every result
    holds a list of its own, and every reader of one result gets the
    same list."""
    builds = []
    build = RecordAssembler.build

    def counting(self, plan, *args):
        builds.append(plan)
        return build(self, plan, *args)

    monkeypatch.setattr(RecordAssembler, "build", counting)
    results = B2BScenario(n_sources=4, n_products=12, seed=7) \
        .build_middleware().query_many(["SELECT product"] * 4)
    assert builds == [] and [len(result) for result in results] == [12] * 4
    readers = 2 * len(results)
    gate = threading.Barrier(readers)
    read = [None] * readers

    def reader(index):
        gate.wait()
        read[index] = results[index % len(results)].entities

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(index,))
                   for index in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 4  # one block per source, built once
    assert [left is right for left, right
            in zip(read, read[len(results):])] == [True] * len(results)
    assert len({id(entities) for entities in read}) == len(results)
    assert all(entity is first for entities in read
               for entity, first in zip(entities, read[0]))


@pytest.mark.parametrize("merge_key", [None, ["brand", "model"]],
                         ids=["unmerged", "merged"])
@pytest.mark.parametrize("mode", ["live", "write-through", "store-served"])
class TestAnswerStepMatrix:
    """Single and batch are bridges around one answer step: they
    agree on everything a caller can observe."""

    def test_every_entry_point_agrees(self, mode, merge_key):
        def world():
            return matrix_world(mode, MetricsRegistry())

        singles = [world().query(query, merge_key=merge_key)
                   for query in MATRIX_BATCH]
        batch = world().query_many(MATRIX_BATCH, merge_key=merge_key)

        expected = [answer_facts(result) for result in singles]
        assert expected[0][0] and expected[0][1]  # entities and errors
        assert expected[0][2] == (mode != "write-through")
        assert expected[0][3] == (mode == "store-served")
        assert [answer_facts(result) for result in batch] == expected
        first, _, duplicate = batch
        assert duplicate.entities is not first.entities
        assert all(left is right for left, right
                   in zip(first.entities, duplicate.entities))

    def test_singles_and_a_batch_move_the_shared_families_alike(
            self, mode, merge_key):
        one_by_one, batched = MetricsRegistry(), MetricsRegistry()
        for query in MATRIX_BATCH:
            matrix_world(mode, one_by_one).query(query, merge_key=merge_key)
        matrix_world(mode, batched).query_many(MATRIX_BATCH,
                                               merge_key=merge_key)

        def count(registry, name):
            family = registry.get(name)
            return 0 if family is None else family.count()

        assert one_by_one.value("queries_total") \
            == batched.value("queries_total") == len(MATRIX_BATCH)
        for shared in ("entities_returned_total", "degraded_queries_total"):
            assert one_by_one.value(shared) == batched.value(shared)
        assert batched.value("degraded_queries_total") \
            == (0 if mode == "write-through" else len(MATRIX_BATCH))
        assert (one_by_one.value("batches_total"),
                batched.value("batches_total")) == (0, 1)
        assert (one_by_one.value("batch_query_dedup_total"),
                batched.value("batch_query_dedup_total")) == (0, 1)
        for batch_only in ("queries_per_scan", "batch_seconds"):
            assert (count(one_by_one, batch_only),
                    count(batched, batch_only)) == (0, 1)
        assert (count(one_by_one, "query_seconds"),
                count(batched, "query_seconds")) == (len(MATRIX_BATCH), 0)


def test_store_served_batch_emits_filter_spans():
    """Every answer path owns a ``filter`` span; the store-served batch
    used to filter inline and show none."""
    s2s = matrix_world("store-served", MetricsRegistry())
    results = s2s.query_many(MATRIX_BATCH)
    assert all(result.store_hit for result in results)
    trace = results[0].trace
    assert not trace.find_all("scan")
    served = trace.find("store").find_all("query")
    assert len(served) == 2  # one per distinct query text
    for span, result in zip(served, results):
        (filtered,) = span.find_all("filter")
        assert filtered.attributes == {"candidates": 24,
                                       "matched": len(result.entities)}
