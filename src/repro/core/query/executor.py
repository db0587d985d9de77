"""The Query Handler: parse → plan → extract → generate → filter.

Ties the pipeline together and applies the query's WHERE conditions to the
assembled entities.  Condition semantics follow SQL: a condition over an
attribute the record does not carry is *not satisfied* (NULL never
matches), so partial sources silently contribute only the records they can
prove.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ...obs import NULL_SPAN, MetricsRegistry, Trace, Tracer
from ...ontology.reasoner import Reasoner
from ...ontology.schema import OntologySchema
from ..extractor.manager import ExtractionOutcome, ExtractorManager
from ..resilience import SourceHealth
from ..instances.assembly import AssembledEntity, EntityBlocks
from ..instances.errors import ErrorReport
from ..instances.generator import BuiltOnRead, InstanceGenerator, unbuilt
from ..instances.outputs import render_entities
from ..store.snapshot import fingerprint_sources
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
    installed, else ``None``.  A live answer's ``entities`` are built on
    first read (``len(result)`` does not build); until then the server
    writes them straight from the generator's columns.
    """

    query: S2sqlQuery
    plan: QueryPlan
    schema: OntologySchema = field(repr=False)
    entities: list[AssembledEntity] = BuiltOnRead()
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
    #: Entities built to answer the query: ``len(entities)`` when the
    #: WHERE conditions were applied before building, every candidate
    #: otherwise, 0 when the store (or a batch sibling) answered.
    generated: int = 0

    def __len__(self) -> int:
        blocks = unbuilt(self)
        return len(self.entities if blocks is None else blocks)

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


class QueryHandler:
    """Executes S2SQL queries through the extraction pipeline.

    ``tracer`` (optional) produces a per-query span tree attached to
    ``QueryResult.trace``; ``metrics`` (optional) receives the
    ``queries_total`` / ``query_seconds`` / ``entities_returned_total`` /
    ``entities_generated_total`` / ``degraded_queries_total`` families.
    Both default to off, keeping the untraced hot path allocation-free."""

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

        serving = None
        if self.store is not None:
            with root.child("store") as span:
                serving = self.store.serve(plan, span=span)
        if serving is not None:
            result = self._answer_served(query, plan, serving, merge_key,
                                         root)
        else:
            schema = self.manager.obtain_extraction_schema(
                plan.required_attributes)
            fingerprints = self._probe(schema)
            with root.child("extract") as span:
                outcome = self.manager.extract(plan.required_attributes,
                                               span=span, schema=schema)
            result = self._answer_live(query, plan, outcome, fingerprints,
                                       merge_key, root)
        return self._seal([result], root, tracer, started, batch=False)[0]

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
        if not queries:
            return []
        started = time.perf_counter()
        tracer = tracer or self.tracer
        root = (tracer.start("batch", queries=len(queries))
                if tracer is not None else NULL_SPAN)

        with root.child("parse"):
            parsed = [query if isinstance(query, S2sqlQuery)
                      else parse_s2sql(query) for query in queries]
        distinct = len({str(query) for query in parsed})
        with root.child("plan") as span:
            batch = QueryBatch(self.planner).plan(parsed)
            span.annotate(queries=len(batch), distinct=distinct,
                          shared_attributes=len(batch.shared_attributes),
                          amortization=round(batch.amortization, 3))

        results = None
        if self.store is not None:
            results = self._serve_batch_from_store(parsed, batch.plans,
                                                   merge_key, root)
        if results is None:
            schema = self.manager.obtain_extraction_schema(
                batch.shared_attributes)
            fingerprints = self._probe(schema)
            with root.child("scan") as span:
                span.annotate(attributes=len(batch.shared_attributes),
                              sources=len(schema.source_ids()))
                shared = self.manager.extract(batch.shared_attributes,
                                              span=span, schema=schema)
            results = self._each_distinct(
                parsed, batch.plans, root,
                lambda query, plan, span: self._answer_live(
                    query, plan, project_outcome(shared, schema, plan),
                    fingerprints, merge_key, span))
        return self._seal(results, root, tracer, started, batch=True)

    def _probe(self, schema) -> dict[str, str | None]:
        """Content fingerprints of the sources a scan is about to read,
        for the fold that follows it (empty without a store).  Taken
        once per query or batch, *before* the read — see
        :func:`~repro.core.store.snapshot.fingerprint_sources`."""
        if self.store is None:
            return {}
        return fingerprint_sources(self.manager.sources, schema.source_ids())

    def _serve_batch_from_store(self, parsed: list[S2sqlQuery],
                                plans: list[QueryPlan],
                                merge_key: list[str] | None,
                                root) -> list[QueryResult] | None:
        """Answer a whole batch from the store, or None to go live.

        All-or-nothing, decided by the store in one step
        (:meth:`SemanticStore.serve_many`): a batch with even one
        unservable query runs the shared scan anyway (the scan visits
        the union of sources, so a partial store answer would not save
        the extraction)."""
        distinct = {str(query): plan for query, plan in zip(parsed, plans)}
        with root.child("store", queries=len(plans)) as store_span:
            servings = self.store.serve_many(list(distinct.values()),
                                             span=store_span)
            if servings is None:
                return None
            served = dict(zip(distinct, servings))
            return self._each_distinct(
                parsed, plans, store_span,
                lambda query, plan, span: self._answer_served(
                    query, plan, served[str(query)], merge_key, span))

    def _each_distinct(self, parsed: list[S2sqlQuery],
                       plans: list[QueryPlan], parent,
                       answer) -> list[QueryResult]:
        """One result per query of a batch, ``answer(query, plan, span)``
        called once per *distinct* query text under its ``query`` span.

        Duplicate queries inside one batch (common under concurrent
        traffic) are answered once; their results share the first
        occurrence's entities (in a list of their own), or its blocks
        while those are not built."""
        answered: dict[str, QueryResult] = {}
        results: list[QueryResult] = []
        for index, (query, plan) in enumerate(zip(parsed, plans)):
            text = str(query)
            first = answered.get(text)
            if first is not None:
                blocks = unbuilt(first)
                results.append(replace(
                    first, query=query, plan=plan, generated=0,
                    entities=list(first.entities) if blocks is None
                    else blocks))
                continue
            with parent.child("query", index=index, text=text) as span:
                first = answer(query, plan, span)
            answered[text] = first
            results.append(first)
        return results

    # -- the answer step ---------------------------------------------------
    #
    # Written once: a change to the pipeline after extraction (what is
    # generated, folded, merged or filtered, and in which order) is made
    # here and reaches single, batch, live and store-served
    # queries alike.

    def _answer_live(self, query: S2sqlQuery, plan: QueryPlan,
                     outcome: ExtractionOutcome,
                     fingerprints: dict[str, str | None],
                     merge_key: list[str] | None, parent) -> QueryResult:
        """Generate → fold → merge → filter one live extraction outcome.

        The WHERE conditions go into the generator, which applies them to
        the typed columns before building anything, unless something
        downstream needs every entity: the store's fold, or a merge (it
        can hand a non-matching record its twin's value)."""
        folding = self.store is not None
        unmasked = ("store" if folding else "merge_key" if merge_key
                    else None if plan.conditions else "no_conditions")
        with parent.child("generate") as span:
            # With a store, generate unmerged so the fold keeps pristine
            # per-source entities; the query's merge applies afterwards.
            generation = self.generator.generate(
                outcome, plan.class_name,
                merge_key=None if folding else merge_key,
                conditions=None if unmasked else plan.conditions)
            built = generation.candidates if unmasked else len(generation)
            span.annotate(entities=len(generation),
                          errors=len(generation.errors.entries),
                          shapes=generation.shapes,
                          records=generation.records, built=built,
                          pushdown="none" if unmasked else "mask")
            if unmasked:
                span.annotate(reason=unmasked)
        if folding:
            with parent.child("store") as span:
                self.store.fold(plan, outcome, generation, fingerprints,
                                span=span)
        # With a store, the merge and the conditions are still to apply
        # to the entities (which a skipped fold never built).
        blocks = None if folding else unbuilt(generation)
        return self._filter(
            query, plan, generation.entities if blocks is None else blocks,
            generation.errors, merge_key if folding else None, parent,
            masked_from=None if unmasked else generation.candidates,
            extraction_seconds=outcome.elapsed_seconds, extraction=outcome,
            generated=built)

    def _answer_served(self, query: S2sqlQuery, plan: QueryPlan, serving,
                       merge_key: list[str] | None, parent) -> QueryResult:
        """Merge → filter a store serving's shared, read-only entities,
        exactly as the live path treats generated entities."""
        return self._filter(query, plan, serving.entities, serving.errors,
                            merge_key, parent,
                            store_hit=True, store_stale=serving.stale)

    def _filter(self, query: S2sqlQuery, plan: QueryPlan,
                entities: list[AssembledEntity] | EntityBlocks,
                errors: ErrorReport, merge_key: list[str] | None, parent,
                *, masked_from: int | None = None,
                **fields) -> QueryResult:
        """Apply the (not yet applied) merge key and the WHERE
        conditions; owns the ``filter`` span.  ``masked_from``: the
        generator already applied the conditions, choosing ``entities``
        from that many candidates.  Blocks (a live answer) arrive only
        with nothing left to apply, and go into the result unbuilt."""
        if merge_key:
            entities = self.generator._merge(entities, merge_key, errors)
        with parent.child("filter") as span:
            if masked_from is not None or not plan.conditions:
                matched = entities
            else:
                matched = self._matching(entities, plan.conditions)
            span.annotate(candidates=(len(entities) if masked_from is None
                                      else masked_from),
                          matched=len(matched))
        return QueryResult(query, plan, self.schema, matched, errors,
                           **fields)

    def _seal(self, results: list[QueryResult], root,
              tracer: Tracer | None, started: float,
              *, batch: bool) -> list[QueryResult]:
        """Finish the root span, stamp the trace and the wall clock on
        every result, record metrics."""
        root.finish()
        trace = tracer.trace_of(root) if tracer is not None else None
        elapsed = time.perf_counter() - started
        for result in results:
            result.trace = trace
            result.elapsed_seconds = elapsed
        if self.metrics is not None:
            self._record_metrics(results, elapsed, batch=batch)
        return results

    def _record_metrics(self, results: list[QueryResult], elapsed: float,
                        *, batch: bool) -> None:
        metrics = self.metrics
        if batch:
            metrics.counter("batches_total", "query batches executed").inc()
        metrics.counter("queries_total", "S2SQL queries executed").inc(
            len(results))
        if batch:
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
        else:
            metrics.histogram("query_seconds",
                              "end-to-end query latency").observe(elapsed)
        metrics.counter("entities_returned_total",
                        "assembled entities returned to callers").inc(
                            sum(map(len, results)))
        metrics.counter("entities_generated_total",
                        "entities built from extracted records").inc(
                            sum(result.generated for result in results))
        degraded = sum(1 for result in results if result.degraded)
        if degraded:
            metrics.counter("degraded_queries_total",
                            "queries answered best-effort").inc(degraded)

    # ------------------------------------------------------------------

    def _matching(self, entities: list[AssembledEntity],
                  conditions: list[ResolvedCondition]
                  ) -> list[AssembledEntity]:
        """The entities satisfying every condition.  A condition reads
        the individual its resolved path names
        (:meth:`ResolvedCondition.pick`); an absent value is NULL and
        satisfies nothing."""
        is_subclass = Reasoner(self.schema.ontology).is_subclass
        #: an entity's classes -> per condition, which individual it reads
        picks: dict[tuple[str, ...], list[int | None]] = {}
        matched = []
        for entity in entities:
            individuals = entity.all_individuals()
            classes = tuple([member.class_name for member in individuals])
            picked = picks.get(classes)
            if picked is None:
                picked = picks[classes] = [
                    condition.pick(classes, is_subclass)
                    for condition in conditions]
            for condition, index in zip(conditions, picked):
                value = (None if index is None else
                         individuals[index].values.get(
                             condition.path.attribute))
                if value is None or not condition.holds(value):
                    break
            else:
                matched.append(entity)
        return matched
