"""Observability tests: span trees, metrics counters, explain().

All timing-sensitive assertions run on a :class:`FakeClock`, so traces
are byte-for-byte deterministic and no test sleeps for real.
"""

from __future__ import annotations

import json

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.core.query.executor import QueryResult
from repro.core.query.parser import parse_s2sql
from repro.core.query.planner import QueryPlanner
from repro.config import ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import (NULL_SPAN, MetricsRegistry, Tracer, metrics_to_json,
                       trace_to_json)
from repro.obs.trace import NullSpan
from repro.ontology.builders import watch_domain_ontology
from repro.sources.flaky import FlakySource
from repro.sources.relational import RelationalDataSource
from repro.workloads import B2BScenario

PIPELINE_STAGES = ["parse", "plan", "extract", "generate", "filter"]


@pytest.fixture
def traced_world():
    """A 2-source world (database + xml) with tracer + fresh metrics."""
    scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
    registry = MetricsRegistry()
    tracer = Tracer()
    s2s = scenario.build_middleware(tracer=tracer, metrics=registry)
    return scenario, s2s, tracer, registry


def degraded_world(*, failure_rate: float = 1.0, replicas: bool = True):
    """DB_1 (always-flaky) with a healthy replica, all on one FakeClock."""
    clock = FakeClock()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0,
                          max_delay=1.0, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
        clock=clock)
    registry = MetricsRegistry()
    tracer = Tracer(clock)
    s2s = S2SMiddleware(watch_domain_ontology(), resilience=config,
                        tracer=tracer, metrics=registry)

    from repro.sources.relational import Database
    db = Database("watchdb")
    db.executescript("""
    CREATE TABLE watches (brand TEXT, price_cents INTEGER);
    INSERT INTO watches (brand, price_cents) VALUES
      ('Seiko', 19900), ('Casio', 1550);
    """)
    primary = FlakySource(RelationalDataSource("DB_1", db),
                          failure_rate=failure_rate, seed=3, clock=clock)
    s2s.register_source(primary)
    s2s.register_source(RelationalDataSource("DB_R1", db))
    for attribute, sql in [(("product", "brand"),
                            "SELECT brand FROM watches"),
                           (("product", "price"),
                            "SELECT price_cents FROM watches")]:
        s2s.register_attribute(attribute, ExtractionRule.sql(sql), "DB_1")
        if replicas:
            s2s.register_attribute(attribute, ExtractionRule.sql(sql),
                                   "DB_R1", replica_of="DB_1")
    return s2s, tracer, registry, clock


class TestSpanTree:
    def test_trace_covers_every_pipeline_stage(self, traced_world):
        _scenario, s2s, _tracer, _registry = traced_world
        result = s2s.query("SELECT product")
        assert result.trace is not None
        stage_names = [child.name for child in result.trace.root.children]
        assert stage_names == PIPELINE_STAGES

    def test_extract_has_one_source_span_per_source(self, traced_world):
        _scenario, s2s, _tracer, _registry = traced_world
        result = s2s.query("SELECT product")
        sources = result.trace.find_all("source")
        assert len(sources) == 2
        ids = {span.attributes["source"] for span in sources}
        assert len(ids) == 2
        for span in sources:
            assert span.find_all("entry"), "source spans nest entry spans"

    def test_entry_spans_carry_attempts(self, traced_world):
        _scenario, s2s, _tracer, _registry = traced_world
        result = s2s.query("SELECT product")
        entries = result.trace.find_all("entry")
        assert entries
        for entry in entries:
            attempts = entry.find_all("attempt")
            assert len(attempts) == 1  # healthy world: one try each
            assert attempts[0].attributes["outcome"] == "ok"

    def test_filter_span_reports_selectivity(self, traced_world):
        _scenario, s2s, _tracer, _registry = traced_world
        result = s2s.query('SELECT product WHERE brand = "no-such-brand"')
        span = result.trace.find("filter")
        assert span.attributes["matched"] == 0
        assert span.attributes["candidates"] >= len(result)

    def test_generate_span_counts_record_shapes(self, traced_world):
        scenario, s2s, _tracer, _registry = traced_world
        span = s2s.query("SELECT product").trace.find("generate")
        assert span.attributes["shapes"] == 1  # clean, homogeneous
        # a source that lost one <model> pads that column with None: its
        # last record is a second shape
        org = next(org for org in scenario.organizations
                   if org.xml_store is not None)
        tag = org.native_fields["model"]
        document = org.xml_store.export("catalog.xml")
        start, end = document.index(f"<{tag}>"), document.index(f"</{tag}>")
        org.xml_store.put("catalog.xml", document[:start]
                          + document[end + len(f"</{tag}>"):])
        result = s2s.query("SELECT product")
        span = result.trace.find("generate")
        assert span.attributes["shapes"] == 2
        assert span.attributes["entities"] == len(result.entities) == 6

    def test_tracer_remembers_bounded_traces(self, traced_world):
        _scenario, s2s, tracer, _registry = traced_world
        for _ in range(3):
            s2s.query("SELECT product")
        assert len(tracer.traces) == 3
        assert tracer.last is tracer.traces[-1]
        small = Tracer(keep_last=2)
        s2s.query_handler.tracer = small
        for _ in range(5):
            s2s.query("SELECT product")
        assert len(small.traces) == 2

    def test_untraced_query_has_no_trace(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        result = s2s.query("SELECT product")
        assert result.trace is None

    def test_trace_renders_and_exports_json(self, traced_world):
        _scenario, s2s, _tracer, _registry = traced_world
        result = s2s.query("SELECT product")
        text = result.trace.render()
        for stage in PIPELINE_STAGES:
            assert stage in text
        document = json.loads(trace_to_json(result.trace))
        assert document["name"] == "query"
        assert [c["name"] for c in document["children"]] == PIPELINE_STAGES


class TestDeterministicDegradedTrace:
    """FakeClock world: every duration is an exact backoff delay sum."""

    def test_retries_and_failover_visible_in_trace(self):
        s2s, _tracer, _registry, _clock = degraded_world()
        result = s2s.query("SELECT product")

        # Both entries still answered (replica served them).
        assert len(result) == 2
        assert result.degraded

        trace = result.trace
        attempts = trace.find_all("attempt")
        # entry 1: 3 attempts; breaker (threshold 3) opens → entry 2
        # fails fast without attempts; replica answers both entries.
        primary_attempts = [s for s in attempts
                            if s.attributes["source"] == "DB_1"]
        assert len(primary_attempts) == 3
        assert all(s.attributes["outcome"] == "transient-error"
                   for s in primary_attempts)
        assert trace.find("breaker-open") is not None
        failovers = trace.find_all("failover")
        assert len(failovers) == 2
        assert {s.attributes["replica"] for s in failovers} == {"DB_R1"}

    def test_backoff_durations_are_exact(self):
        s2s, _tracer, _registry, clock = degraded_world()
        result = s2s.query("SELECT product")
        backoffs = result.trace.find_all("backoff")
        # 3 attempts → 2 backoffs, jitter="none": 0.01 then 0.02 seconds.
        assert [round(s.duration_seconds, 6) for s in backoffs] \
            == [0.01, 0.02]
        assert clock.monotonic() == pytest.approx(0.03)
        # On the fake clock the whole query costs exactly the backoffs.
        assert result.trace.duration_seconds == pytest.approx(0.03)

    def test_degraded_counters(self):
        s2s, _tracer, registry, _clock = degraded_world()
        s2s.query("SELECT product")
        assert registry.value("retries_total", source="DB_1") == 2
        assert registry.value("failovers_total", source="DB_1") == 2
        assert registry.value("breaker_rejections_total", source="DB_1") == 1
        assert registry.value("breaker_transitions_total", source="DB_1",
                              from_state="closed", to_state="open") == 1
        assert registry.value("degraded_queries_total") == 1


def span_shape(span, depth: int = 0) -> list[str]:
    """Skeleton of a span tree: names + identity attributes, no timing."""
    label = span.name
    for key in ("source", "attribute", "outcome", "replica", "number"):
        if key in span.attributes:
            label += f" {key}={span.attributes[key]}"
    lines = ["  " * depth + label]
    for child in span.children:
        lines.extend(span_shape(child, depth + 1))
    return lines


# Golden snapshot: one batched run against the degraded world — retries
# with backoff, breaker trip, failover — all inside a single shared scan
# serving two queries.  Any structural change to the batch pipeline or
# the resilience fan-out must update this deliberately.
GOLDEN_BATCH_SHAPE = """\
batch
  parse
  plan
  scan
    source source=DB_1
      entry attribute=thing.product.brand
        attempt source=DB_1 outcome=transient-error number=1
        backoff
        attempt source=DB_1 outcome=transient-error number=2
        backoff
        attempt source=DB_1 outcome=transient-error number=3
        failover replica=DB_R1
          attempt source=DB_R1 outcome=ok number=1
      entry attribute=thing.product.price
        breaker-open source=DB_1
        failover replica=DB_R1
          attempt source=DB_R1 outcome=ok number=1
  query
    generate
    filter
  query
    generate
    filter"""

BATCH_QUERIES = ["SELECT product", 'SELECT product WHERE brand = "Seiko"']


class TestGoldenBatchTrace:
    """Stable span-tree snapshot for a batched degraded execution."""

    def test_batch_trace_matches_golden_shape(self):
        s2s, _tracer, _registry, _clock = degraded_world()
        results = s2s.query_many(BATCH_QUERIES)
        assert "\n".join(span_shape(results[0].trace.root)) \
            == GOLDEN_BATCH_SHAPE
        # Both queries answered from the replica, both visibly degraded.
        assert [len(r) for r in results] == [2, 1]
        assert all(r.degraded for r in results)
        assert all(r.trace is results[0].trace for r in results)

    def test_golden_shape_is_reproducible(self):
        """Two fresh worlds produce byte-identical shapes — the snapshot
        is deterministic, not a lucky interleaving."""
        shapes = []
        for _ in range(2):
            s2s, _tracer, _registry, _clock = degraded_world()
            results = s2s.query_many(BATCH_QUERIES)
            shapes.append("\n".join(span_shape(results[0].trace.root)))
        assert shapes[0] == shapes[1] == GOLDEN_BATCH_SHAPE

    def test_batch_degraded_counters(self):
        s2s, _tracer, registry, _clock = degraded_world()
        s2s.query_many(BATCH_QUERIES)
        # Resilience cost paid once for the scan, not once per query...
        assert registry.value("retries_total", source="DB_1") == 2
        assert registry.value("failovers_total", source="DB_1") == 2
        assert registry.value("breaker_rejections_total", source="DB_1") == 1
        # ...while query-level accounting still sees both queries.
        assert registry.value("batches_total") == 1
        assert registry.value("queries_total") == 2
        assert registry.get("queries_per_scan").sum() == 2
        assert registry.value("degraded_queries_total") == 2


# Golden snapshots: why was everything generated?  The answer step of a
# selective, an unselective and a merged query over the 2-source / 6-
# product world, with the attributes that say what the generator was
# handed, what it built and what the filter was left to do.
def answer_step_shape(trace) -> str:
    lines = []
    for name, keys in (("generate", ("records", "built", "entities",
                                     "pushdown", "reason")),
                       ("filter", ("candidates", "matched"))):
        attributes = trace.find(name).attributes
        lines.append(name + "".join(
            f" {key}={attributes[key]}" for key in keys if key in attributes))
    return "\n".join(lines)


GOLDEN_SELECTIVE = """\
generate records=6 built=1 entities=1 pushdown=mask
filter candidates=6 matched=1"""

GOLDEN_UNSELECTIVE = """\
generate records=6 built=6 entities=6 pushdown=none reason=no_conditions
filter candidates=6 matched=6"""

GOLDEN_MERGED = """\
generate records=6 built=6 entities=6 pushdown=none reason=merge_key
filter candidates=6 matched=1"""

GOLDEN_FOLDED = """\
generate records=6 built=6 entities=6 pushdown=none reason=store
filter candidates=6 matched=1"""


class TestGoldenPushdownTrace:
    def selective(self, s2s) -> str:
        brand = s2s.query("SELECT product").entities[0].value("brand")
        model = s2s.query("SELECT product").entities[0].value("model")
        return (f'SELECT product WHERE brand = "{brand}" '
                f'AND model = "{model}"')

    def test_selective_query_masks(self, traced_world):
        _scenario, s2s, _tracer, registry = traced_world
        query = self.selective(s2s)
        before = registry.value("entities_generated_total")
        result = s2s.query(query)
        assert answer_step_shape(result.trace) == GOLDEN_SELECTIVE
        assert result.generated == len(result) == 1
        assert registry.value("entities_generated_total") - before == 1
        assert "pushdown='mask'" in s2s.explain(query)

    def test_unselective_query_generates_everything(self, traced_world):
        _scenario, s2s, _tracer, registry = traced_world
        result = s2s.query("SELECT product")
        assert answer_step_shape(result.trace) == GOLDEN_UNSELECTIVE
        assert registry.value("entities_generated_total") == 6
        assert registry.value("entities_returned_total") == 6
        assert "reason='no_conditions'" in s2s.explain("SELECT product")

    def test_merge_key_and_store_say_why_the_mask_is_off(self, traced_world):
        scenario, s2s, _tracer, _registry = traced_world
        query = self.selective(s2s)
        merged = s2s.query(query, merge_key=["brand", "model"])
        assert answer_step_shape(merged.trace) == GOLDEN_MERGED
        assert merged.generated == 6
        stored = scenario.build_middleware(tracer=Tracer(), store=True)
        folded = stored.query(query)
        assert answer_step_shape(folded.trace) == GOLDEN_FOLDED
        served = stored.query(query)
        assert served.store_hit and served.generated == 0
        assert served.trace.find("generate") is None

    def test_batch_siblings_are_generated_once(self, traced_world):
        _scenario, s2s, _tracer, registry = traced_world
        results = s2s.query_many(["SELECT product", "SELECT product"])
        assert [result.generated for result in results] == [6, 0]
        assert registry.value("entities_generated_total") == 6
        assert registry.value("entities_returned_total") == 12


# Golden snapshots: what a store write and a store read cost.  A write
# is a slice swap and says no more than that; a read hands out the stored
# entities, which the one filter step then selects from (``cloned`` is
# still looked for: a read that copies again would show here).
def store_cost_shape(trace) -> str:
    lines = []
    for span in trace.walk():
        keys = {"store": ("store", "entities", "cloned"),
                "filter": ("candidates", "matched")}.get(span.name)
        if keys:
            lines.append(span.name + "".join(
                f" {key}={span.attributes[key]}" for key in keys
                if key in span.attributes))
    return "\n".join(lines)


GOLDEN_MATERIALIZED = GOLDEN_TOUCHED = """\
store store=commit"""
GOLDEN_SERVED = GOLDEN_SERVED_MERGED = """\
store store=hit entities=6
filter candidates=6 matched=1"""
GOLDEN_SERVED_BATCH = """\
store store=hit entities=12
filter candidates=6 matched=1
filter candidates=6 matched=6"""


class TestGoldenStoreTrace:
    def test_store_spans_say_what_was_written_and_served(self):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        registry = MetricsRegistry()
        s2s = scenario.build_middleware(tracer=Tracer(), metrics=registry,
                                        store=True)
        first = s2s.materialize("SELECT product")
        assert store_cost_shape(first.trace) == GOLDEN_MATERIALIZED
        # the xml source's document moves, its records do not
        org = next(o for o in scenario.organizations
                   if o.source_type == "xml")
        org.xml_store.put("catalog.xml", org.xml_store.export(
            "catalog.xml").replace("</catalog>",
                                   "<touched>1</touched></catalog>"))
        touched, = s2s.refresh_store()
        assert touched.extracted_sources == [org.source_id]
        assert store_cost_shape(touched.trace) == GOLDEN_TOUCHED
        assert registry.get("store_triples_written_total") is None

        entity = s2s.query("SELECT product").entities[0]
        query = (f'SELECT product WHERE brand = "{entity.value("brand")}" '
                 f'AND model = "{entity.value("model")}"')
        served = s2s.query(query)
        assert served.store_hit
        assert store_cost_shape(served.trace) == GOLDEN_SERVED
        merged = s2s.query(query, merge_key=["brand", "model"])
        assert store_cost_shape(merged.trace) == GOLDEN_SERVED_MERGED
        batch = s2s.query_many([query, "SELECT product"])
        assert all(result.store_hit for result in batch)
        assert store_cost_shape(batch[0].trace) == GOLDEN_SERVED_BATCH


class TestMetricsCounters:
    def test_query_counters(self, traced_world):
        _scenario, s2s, _tracer, registry = traced_world
        result = s2s.query("SELECT product")
        assert registry.value("queries_total") == 1
        assert registry.value("extractions_total") == 1
        assert registry.value("entities_returned_total") == len(result)
        assert registry.get("query_seconds").count() == 1

    def test_cache_hit_miss_counters(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        registry = MetricsRegistry()
        s2s = scenario.build_middleware(store=True, metrics=registry)
        s2s.query("SELECT product")
        assert registry.value("store_misses_total",
                              reason="unmaterialized") == 1
        assert registry.get("store_hits_total") is None
        s2s.query("SELECT product")
        assert registry.value("store_hits_total") == 1
        removed = s2s.invalidate_cache()
        assert removed == 1
        s2s.query("SELECT product")
        assert registry.value("store_misses_total",
                              reason="stale") == removed

    def test_metrics_surface_on_middleware(self, traced_world):
        _scenario, s2s, _tracer, registry = traced_world
        assert s2s.metrics() is registry
        s2s.query("SELECT product")
        text = registry.render_text()
        assert "# TYPE queries_total counter" in text
        document = json.loads(metrics_to_json(registry))
        assert document["queries_total"]["kind"] == "counter"

    def test_default_registry_used_when_not_injected(self):
        from repro.obs import DEFAULT_REGISTRY
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware()
        assert s2s.metrics() is DEFAULT_REGISTRY


class TestExplain:
    def test_explain_renders_four_step_flow(self, traced_world):
        _scenario, s2s, tracer, _registry = traced_world
        before = len(tracer.traces)
        text = s2s.explain("SELECT product WHERE price < 500")
        # Figure 5 flow: all pipeline stages plus the per-source fan-out
        # over both source types.
        for stage in PIPELINE_STAGES:
            assert stage in text
        assert text.count("source ") >= 2
        source_types = {s2s.source_repository.get(sid).source_type
                        for sid in s2s.source_repository.ids()}
        assert len(source_types) >= 2
        # explain() must not pollute the installed tracer.
        assert len(tracer.traces) == before

    def test_explain_works_without_installed_tracer(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        text = s2s.explain("SELECT product")
        assert "query" in text and "extract" in text


class TestRebuildPreservesState:
    def test_load_mapping_preserves_health_and_config(self):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        registry = MetricsRegistry()
        tracer = Tracer()
        s2s = scenario.build_middleware(strict_extraction=False,
                                        validate_instances=False,
                                        tracer=tracer, metrics=registry)
        s2s.query("SELECT product")
        health_before = s2s.source_health()
        assert health_before
        config_before = s2s.resilience

        text = s2s.dump_mapping()
        by_id = {org.source_id: org for org in scenario.organizations}
        s2s.load_mapping(text,
                         lambda sid, info: scenario.connector(by_id[sid]))

        # Cumulative health survived the reload …
        health_after = s2s.source_health()
        for source_id, before in health_before.items():
            assert health_after[source_id].attempts >= before.attempts
        # … and so did every configuration knob.
        assert s2s.resilience is config_before
        assert s2s.manager.metrics is registry
        assert s2s.query_handler.tracer is tracer
        assert s2s.query_handler.generator.validate is False
        # And the reloaded world still answers, accumulating further.
        result = s2s.query("SELECT product")
        assert len(result) == 4
        assert s2s.source_health()[result.entities[0].source_id].attempts \
            > health_before[result.entities[0].source_id].attempts


class TestQueryResultConstruction:
    def test_external_construction_and_serialize(self, schema):
        query = parse_s2sql("SELECT product")
        plan = QueryPlanner(schema).plan(query)
        result = QueryResult(query, plan, schema)
        assert len(result) == 0
        assert result.trace is None
        assert not result.degraded
        assert result.serialize("json") == "[]"


class TestNullSpan:
    def test_null_span_is_inert_singleton(self):
        assert NULL_SPAN.child("anything", attr=1) is NULL_SPAN
        NULL_SPAN.annotate(x=1)
        NULL_SPAN.fail("boom")
        NULL_SPAN.finish()
        with NULL_SPAN as span:
            assert span is NULL_SPAN
        assert NULL_SPAN.duration_seconds == 0.0
        assert NULL_SPAN.attributes == {}
        assert isinstance(NULL_SPAN, NullSpan)

    def test_registry_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")
        registry.counter("lat")
        with pytest.raises(ValueError, match="histogram"):
            registry.histogram("lat")
