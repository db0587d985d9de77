"""The Query Handler: parse → plan → extract → generate → filter.

Ties the pipeline together and applies the query's WHERE conditions to the
assembled entities.  Condition semantics follow SQL: a condition over an
attribute the record does not carry is *not satisfied* (NULL never
matches), so partial sources silently contribute only the records they can
prove.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ...errors import QueryError
from ...obs import NULL_SPAN, MetricsRegistry, Trace, Tracer
from ...ontology.schema import OntologySchema
from ..extractor.manager import ExtractionOutcome, ExtractorManager
from ..resilience import SourceHealth
from ..instances.assembly import AssembledEntity
from ..instances.errors import ErrorReport
from ..instances.generator import InstanceGenerator
from ..instances.outputs import render_entities
from .ast import S2sqlQuery
from .batch import QueryBatch, project_outcome
from .parser import parse_s2sql
from .planner import QueryPlan, QueryPlanner, ResolvedCondition


@dataclass
class QueryResult:
    """The answer to one S2SQL query.

    Self-contained: the ontology schema it serializes against is a
    constructor argument, so external code (tests, alternative handlers,
    result post-processors) can build one directly —
    ``QueryResult(query, plan, schema, entities=[...])``.  ``trace`` is
    the per-query span tree when the middleware ran with a tracer
    installed, else ``None``.
    """

    query: S2sqlQuery
    plan: QueryPlan
    schema: OntologySchema = field(repr=False)
    entities: list[AssembledEntity] = field(default_factory=list)
    errors: ErrorReport = field(default_factory=ErrorReport)
    elapsed_seconds: float = 0.0
    extraction_seconds: float = 0.0
    extraction: ExtractionOutcome | None = field(default=None, repr=False)
    trace: Trace | None = field(default=None, repr=False)
    #: True when the answer came from the semantic store instead of live
    #: extraction (``extraction`` is then None).
    store_hit: bool = False
    #: True when a store-served answer contained stale data (past TTL
    #: while a refresh was in flight, or last-known-good slices).
    store_stale: bool = False

    def __len__(self) -> int:
        return len(self.entities)

    @property
    def health(self) -> dict[str, SourceHealth]:
        """Per-source resilience ledger for this query's extraction."""
        return self.extraction.health if self.extraction is not None else {}

    @property
    def degraded(self) -> bool:
        """True when the answer is best-effort rather than complete —
        some source failed, timed out, was served by a replica, or sits
        behind an open circuit breaker."""
        return (self.extraction.degraded if self.extraction is not None
                else not self.errors.ok)

    @property
    def degraded_sources(self) -> list[str]:
        """The sources responsible for a degraded answer, sorted."""
        return (self.extraction.degraded_sources
                if self.extraction is not None else [])

    @property
    def output_classes(self) -> list[str]:
        """The classes present in the output (paper: Product, watch,
        Provider for the example query)."""
        classes: list[str] = []
        for entity in self.entities:
            for individual in entity.all_individuals():
                if individual.class_name not in classes:
                    classes.append(individual.class_name)
        return classes

    def serialize(self, format: str = "owl") -> str:
        """Render via the instance generator's output adapters."""
        return render_entities(self.schema, self.entities, format)

    def consistency(self, key: list[str], *, tolerance: float = 1e-6):
        """Cross-source agreement report for entities sharing ``key``.

        See :mod:`repro.core.instances.consistency`."""
        from ..instances.consistency import check_consistency
        return check_consistency(self.entities, key, tolerance=tolerance)


@dataclass
class _PreparedQuery:
    """Everything :meth:`QueryHandler.execute` does before extraction.

    When the store already answered, ``result`` is the finished
    :class:`QueryResult` and no extraction runs.  Shared by the sync and
    async execution paths so they differ *only* in how the extraction
    outcome is obtained."""

    query: S2sqlQuery | None = None
    plan: QueryPlan | None = None
    root: Any = NULL_SPAN
    tracer: Tracer | None = None
    started: float = 0.0
    result: QueryResult | None = None


@dataclass
class _PreparedBatch:
    """Everything :meth:`QueryHandler.execute_many` does before the
    shared scan; ``results`` short-circuits (empty batch or full store
    serving)."""

    parsed: list[S2sqlQuery] = field(default_factory=list)
    batch: Any = None
    schema: Any = None
    root: Any = NULL_SPAN
    tracer: Tracer | None = None
    started: float = 0.0
    results: list[QueryResult] | None = None


class QueryHandler:
    """Executes S2SQL queries through the extraction pipeline.

    ``tracer`` (optional) produces a per-query span tree attached to
    ``QueryResult.trace``; ``metrics`` (optional) receives the
    ``queries_total`` / ``query_seconds`` / ``entities_returned_total`` /
    ``degraded_queries_total`` families.  Both default to off, keeping
    the untraced hot path allocation-free."""

    def __init__(self, schema: OntologySchema, manager: ExtractorManager,
                 *, validate_instances: bool = True,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 store=None) -> None:
        self.schema = schema
        self.manager = manager
        self.planner = QueryPlanner(schema)
        self.generator = InstanceGenerator(schema,
                                           validate=validate_instances)
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`~repro.core.store.SemanticStore`.  When set,
        #: fresh materializations answer queries without extraction and
        #: complete live answers are folded back in (write-through).
        self.store = store

    def execute(self, query: str | S2sqlQuery,
                *, merge_key: list[str] | None = None,
                tracer: Tracer | None = None) -> QueryResult:
        """Parse, plan, extract, generate and filter one query.

        ``tracer`` overrides the handler's installed tracer for this one
        call (``S2SMiddleware.explain`` uses this)."""
        prep = self._prepare(query, merge_key, tracer)
        if prep.result is not None:
            return prep.result
        with prep.root.child("extract") as span:
            outcome = self.manager.extract(prep.plan.required_attributes,
                                           span=span)
        return self._finish_live(prep, outcome, merge_key)

    async def aexecute(self, query: str | S2sqlQuery,
                       *, merge_key: list[str] | None = None,
                       tracer: Tracer | None = None) -> QueryResult:
        """Awaitable :meth:`execute` for callers on an event loop.

        Parsing, planning, store serving/folding, generation, filtering,
        tracing and metrics are byte-for-byte the sync path's (shared
        helpers); only the extraction outcome is awaited — natively
        under the asyncio engine, in a worker thread otherwise."""
        prep = self._prepare(query, merge_key, tracer)
        if prep.result is not None:
            return prep.result
        with prep.root.child("extract") as span:
            outcome = await self.manager.extract_async(
                prep.plan.required_attributes, span=span)
        return self._finish_live(prep, outcome, merge_key)

    def _prepare(self, query: str | S2sqlQuery,
                 merge_key: list[str] | None,
                 tracer: Tracer | None) -> _PreparedQuery:
        """Parse, plan and (when a store is installed) try to serve —
        everything :meth:`execute` does before touching the extractor."""
        started = time.perf_counter()
        tracer = tracer or self.tracer
        text = query if isinstance(query, str) else str(query)
        root = (tracer.start("query", text=text)
                if tracer is not None else NULL_SPAN)

        with root.child("parse"):
            if isinstance(query, str):
                query = parse_s2sql(query)
        with root.child("plan") as span:
            plan = self.planner.plan(query)
            span.annotate(query_class=plan.class_name,
                          attributes=len(plan.required_attributes),
                          conditions=len(plan.conditions))
        prep = _PreparedQuery(query=query, plan=plan, root=root,
                              tracer=tracer, started=started)

        if self.store is not None:
            with root.child("store") as span:
                serving = self.store.serve(plan, span=span)
            if serving is not None:
                prep.result = self._finish_store_hit(
                    query, plan, serving, merge_key, root, tracer, started)
        return prep

    def _finish_live(self, prep: _PreparedQuery,
                     outcome: ExtractionOutcome,
                     merge_key: list[str] | None) -> QueryResult:
        """Generate, fold, filter and record — everything after the
        extraction outcome exists, shared by sync and async paths."""
        query, plan, root = prep.query, prep.plan, prep.root
        with root.child("generate") as span:
            # With a store, generate unmerged so the fold keeps pristine
            # per-source entities; the query's merge applies afterwards.
            generation = self.generator.generate(
                outcome, plan.class_name,
                merge_key=None if self.store is not None else merge_key)
            span.annotate(entities=len(generation.entities),
                          errors=len(generation.errors.entries),
                          shapes=generation.shapes)
        if self.store is not None:
            with root.child("store") as span:
                self.store.fold(plan, outcome, generation,
                                self.manager.sources, span=span)
            if merge_key:
                generation.entities = self.generator._merge(
                    generation.entities, merge_key, generation.errors)
        with root.child("filter") as span:
            entities = [entity for entity in generation.entities
                        if self._matches(entity, plan.conditions)]
            span.annotate(candidates=len(generation.entities),
                          matched=len(entities))
        root.finish()

        result = QueryResult(query, plan, self.schema, entities,
                             generation.errors,
                             extraction_seconds=outcome.elapsed_seconds,
                             extraction=outcome)
        if prep.tracer is not None:
            result.trace = prep.tracer.trace_of(root)
        result.elapsed_seconds = time.perf_counter() - prep.started
        if self.metrics is not None:
            self._record_query_metrics(result)
        return result

    def _finish_store_hit(self, query: S2sqlQuery, plan: QueryPlan,
                          serving, merge_key: list[str] | None, root,
                          tracer: Tracer | None,
                          started: float) -> QueryResult:
        """Build a :class:`QueryResult` from a store serving: apply the
        query's merge key and conditions to the served clones, exactly
        as the live path applies them to generated entities."""
        entities = serving.entities
        errors = serving.errors
        if merge_key:
            entities = self.generator._merge(entities, merge_key, errors)
        with root.child("filter") as span:
            matched = [entity for entity in entities
                       if self._matches(entity, plan.conditions)]
            span.annotate(candidates=len(entities), matched=len(matched))
        root.finish()
        result = QueryResult(query, plan, self.schema, matched, errors,
                             store_hit=True, store_stale=serving.stale)
        if tracer is not None:
            result.trace = tracer.trace_of(root)
        result.elapsed_seconds = time.perf_counter() - started
        if self.metrics is not None:
            self._record_query_metrics(result)
        return result

    def execute_many(self, queries: list[str | S2sqlQuery],
                     *, merge_key: list[str] | None = None,
                     tracer: Tracer | None = None) -> list[QueryResult]:
        """Execute a batch of queries through **one shared scan** per
        source, returning one :class:`QueryResult` per query, in order.

        All queries are parsed and planned first (a malformed query fails
        the batch before any extraction runs), their required attributes
        are unioned into a single extraction run — so retries, breakers,
        deadlines, failover and tracing apply once per scan instead of
        once per query — and the shared outcome is projected back onto
        each query for its own instance generation and condition
        filtering.  Results are instance-identical to running every query
        alone; ``elapsed_seconds`` on each result is the *batch*
        wall-clock (the queries ran together), and all results share the
        batch's trace when a tracer is installed."""
        prep = self._prepare_batch(queries, merge_key, tracer)
        if prep.results is not None:
            return prep.results
        with prep.root.child("scan") as span:
            span.annotate(attributes=len(prep.batch.shared_attributes),
                          sources=len(prep.schema.source_ids()))
            shared = self.manager.extract(prep.batch.shared_attributes,
                                          span=span, schema=prep.schema)
        return self._finish_batch(prep, shared, merge_key)

    async def aexecute_many(self, queries: list[str | S2sqlQuery],
                            *, merge_key: list[str] | None = None,
                            tracer: Tracer | None = None
                            ) -> list[QueryResult]:
        """Awaitable :meth:`execute_many`: same single shared scan, same
        planning/store/projection helpers, extraction awaited."""
        prep = self._prepare_batch(queries, merge_key, tracer)
        if prep.results is not None:
            return prep.results
        with prep.root.child("scan") as span:
            span.annotate(attributes=len(prep.batch.shared_attributes),
                          sources=len(prep.schema.source_ids()))
            shared = await self.manager.extract_async(
                prep.batch.shared_attributes, span=span, schema=prep.schema)
        return self._finish_batch(prep, shared, merge_key)

    def _prepare_batch(self, queries: list[str | S2sqlQuery],
                       merge_key: list[str] | None,
                       tracer: Tracer | None) -> _PreparedBatch:
        """Parse + plan the batch and try the store — everything
        :meth:`execute_many` does before the shared scan."""
        prep = _PreparedBatch()
        if not queries:
            prep.results = []
            return prep
        prep.started = started = time.perf_counter()
        prep.tracer = tracer = tracer or self.tracer
        prep.root = root = (tracer.start("batch", queries=len(queries))
                            if tracer is not None else NULL_SPAN)

        with root.child("parse"):
            prep.parsed = parsed = [query if isinstance(query, S2sqlQuery)
                                    else parse_s2sql(query)
                                    for query in queries]
        distinct = len({str(query) for query in parsed})
        with root.child("plan") as span:
            prep.batch = batch = QueryBatch(self.planner).plan(parsed)
            span.annotate(queries=len(batch), distinct=distinct,
                          shared_attributes=len(batch.shared_attributes),
                          amortization=round(batch.amortization, 3))

        if self.store is not None:
            results = self._serve_batch_from_store(batch, parsed, merge_key,
                                                   root, tracer, started)
            if results is not None:
                prep.results = results
                return prep

        prep.schema = self.manager.obtain_extraction_schema(
            batch.shared_attributes)
        return prep

    def _finish_batch(self, prep: _PreparedBatch,
                      shared: ExtractionOutcome,
                      merge_key: list[str] | None) -> list[QueryResult]:
        """Project the shared outcome onto every query — everything
        after the scan, shared by sync and async paths."""
        parsed, batch, schema = prep.parsed, prep.batch, prep.schema
        root, tracer = prep.root, prep.tracer
        # Duplicate queries inside one batch (common under concurrent
        # traffic) are generated and filtered once; their results share
        # the first occurrence's entities.
        answered: dict[str, tuple] = {}
        results: list[QueryResult] = []
        for index, plan in enumerate(batch.plans):
            text = str(parsed[index])
            if text in answered:
                entities, errors, outcome = answered[text]
            else:
                with root.child("query", index=index,
                                text=text) as query_span:
                    outcome = project_outcome(shared, schema, plan)
                    with query_span.child("generate") as span:
                        generation = self.generator.generate(
                            outcome, plan.class_name,
                            merge_key=(None if self.store is not None
                                       else merge_key))
                        span.annotate(entities=len(generation.entities),
                                      errors=len(generation.errors.entries),
                                      shapes=generation.shapes)
                    if self.store is not None:
                        with query_span.child("store") as span:
                            self.store.fold(plan, outcome, generation,
                                            self.manager.sources, span=span)
                        if merge_key:
                            generation.entities = self.generator._merge(
                                generation.entities, merge_key,
                                generation.errors)
                    with query_span.child("filter") as span:
                        entities = [entity
                                    for entity in generation.entities
                                    if self._matches(entity,
                                                     plan.conditions)]
                        span.annotate(candidates=len(generation.entities),
                                      matched=len(entities))
                errors = generation.errors
                answered[text] = (entities, errors, outcome)
            results.append(QueryResult(
                parsed[index], plan, self.schema, list(entities), errors,
                extraction_seconds=shared.elapsed_seconds,
                extraction=outcome))
        root.finish()

        trace = tracer.trace_of(root) if tracer is not None else None
        elapsed = time.perf_counter() - prep.started
        for result in results:
            result.trace = trace
            result.elapsed_seconds = elapsed
        if self.metrics is not None:
            self._record_batch_metrics(results, elapsed)
        return results

    def _serve_batch_from_store(self, batch, parsed: list[S2sqlQuery],
                                merge_key: list[str] | None, root,
                                tracer: Tracer | None,
                                started: float) -> list[QueryResult] | None:
        """Answer a whole batch from the store, or None to go live.

        All-or-nothing: a batch with even one unservable query runs the
        shared scan anyway (the scan visits the union of sources, so a
        partial store answer would not save the extraction)."""
        if not all(self.store.servable(plan) for plan in batch.plans):
            return None
        servings: dict[str, object] = {}
        with root.child("store", queries=len(batch.plans)) as store_span:
            for index, plan in enumerate(batch.plans):
                text = str(parsed[index])
                if text in servings:
                    continue
                with store_span.child("query", index=index,
                                      text=text) as span:
                    serving = self.store.serve(plan, span=span)
                if serving is None:
                    # Raced a TTL expiry between servable() and serve():
                    # fall back to the live shared scan.
                    store_span.annotate(fallback="stale-race")
                    return None
                servings[text] = serving

        answered: dict[str, tuple] = {}
        results: list[QueryResult] = []
        for index, plan in enumerate(batch.plans):
            text = str(parsed[index])
            if text not in answered:
                serving = servings[text]
                entities = serving.entities
                errors = serving.errors
                if merge_key:
                    entities = self.generator._merge(entities, merge_key,
                                                     errors)
                entities = [entity for entity in entities
                            if self._matches(entity, plan.conditions)]
                answered[text] = (entities, errors, serving.stale)
            entities, errors, stale = answered[text]
            results.append(QueryResult(
                parsed[index], plan, self.schema, list(entities), errors,
                store_hit=True, store_stale=stale))
        root.finish()

        trace = tracer.trace_of(root) if tracer is not None else None
        elapsed = time.perf_counter() - started
        for result in results:
            result.trace = trace
            result.elapsed_seconds = elapsed
        if self.metrics is not None:
            self._record_batch_metrics(results, elapsed)
        return results

    def _record_batch_metrics(self, results: list[QueryResult],
                              elapsed: float) -> None:
        metrics = self.metrics
        metrics.counter("batches_total", "query batches executed").inc()
        metrics.counter("queries_total", "S2SQL queries executed").inc(
            len(results))
        metrics.histogram("queries_per_scan",
                          "queries amortized over one shared scan",
                          buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
                          ).observe(len(results))
        metrics.histogram("batch_seconds",
                          "end-to-end batch latency").observe(elapsed)
        duplicates = len(results) - len(
            {str(result.query) for result in results})
        if duplicates:
            metrics.counter(
                "batch_query_dedup_total",
                "duplicate in-batch queries answered from a sibling"
                ).inc(duplicates)
        metrics.counter("entities_returned_total",
                        "assembled entities returned to callers").inc(
                            sum(len(result.entities) for result in results))
        degraded = sum(1 for result in results if result.degraded)
        if degraded:
            metrics.counter("degraded_queries_total",
                            "queries answered best-effort").inc(degraded)

    def _record_query_metrics(self, result: QueryResult) -> None:
        metrics = self.metrics
        metrics.counter("queries_total", "S2SQL queries executed").inc()
        metrics.histogram("query_seconds",
                          "end-to-end query latency").observe(
                              result.elapsed_seconds)
        metrics.counter("entities_returned_total",
                        "assembled entities returned to callers").inc(
                            len(result.entities))
        if result.degraded:
            metrics.counter("degraded_queries_total",
                            "queries answered best-effort").inc()

    # ------------------------------------------------------------------

    def _matches(self, entity: AssembledEntity,
                 conditions: list[ResolvedCondition]) -> bool:
        for condition in conditions:
            value = entity.value(condition.path.attribute)
            if value is None:
                return False
            if not self._check(value, condition):
                return False
        return True

    @staticmethod
    def _check(value, condition: ResolvedCondition) -> bool:
        operator = condition.operator
        expected = condition.value
        if operator == "CONTAINS":
            return str(expected).lower() in str(value).lower()
        if operator == "LIKE":
            return condition.like.match(str(value)) is not None
        try:
            if operator == "=":
                return value == expected
            if operator == "!=":
                return value != expected
            if operator == "<":
                return value < expected
            if operator == ">":
                return value > expected
            if operator == "<=":
                return value <= expected
            return value >= expected
        except TypeError as exc:
            raise QueryError(
                f"cannot compare extracted value {value!r} with constraint "
                f"{expected!r}") from exc
