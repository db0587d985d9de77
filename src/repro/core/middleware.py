"""The S2S middleware facade — the single point of entry.

Wires the architecture of Figure 1 together: the ontology schema, the
mapping module (attribute + data source repositories, registrar), the
extractor manager and the query handler.  A complete integration setup
is::

    from repro.core import S2SMiddleware
    from repro.core.mapping.rules import ExtractionRule
    from repro.ontology.builders import watch_domain_ontology

    s2s = S2SMiddleware(watch_domain_ontology())
    s2s.register_source(RelationalDataSource("DB_ID_45", database))
    s2s.register_attribute(("watch", "case"),
                           ExtractionRule.sql("SELECT case_material "
                                              "FROM watches"),
                           "DB_ID_45")
    result = s2s.query('SELECT product WHERE brand = "Seiko"')
    print(result.serialize("owl"))

Observability is built in: pass ``tracer=Tracer()`` to get a per-query
span tree on ``result.trace``, call ``explain(query)`` for the rendered
Figure-5 flow of one query, and read the cumulative counters through
``metrics()`` (fed into the process-wide default registry unless a
dedicated :class:`~repro.obs.MetricsRegistry` is injected).
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import replace
from typing import Any

from ..errors import S2SError
from ..ids import AttributePath
from ..obs import DEFAULT_REGISTRY, MetricsRegistry, Tracer
from ..ontology.model import Ontology
from ..ontology.schema import OntologySchema
from ..sources.base import DataSource
from .cluster.manager import ShardedExtractorManager
from .extractor.extractors import Extractor, ExtractorRegistry
from .extractor.manager import ExtractionOutcome, ExtractorManager
from .ingest import IngestJob, IngestReport, IngestTarget, ShardCoordinator
from .resilience.config import (ConcurrencyConfig, ResilienceConfig,
                                coerce_concurrency)
from .resilience.health import SourceHealth
from .instances.outputs import OUTPUT_FORMATS
from .mapping.attributes import MappingEntry
from .mapping.datasources import DataSourceRepository
from .mapping.persistence import dump_mapping, load_mapping
from .mapping.registration import AttributeRegistrar
from .mapping.repository import AttributeRepository
from .mapping.rules import ExtractionRule, TransformRegistry
from .query.executor import QueryHandler, QueryResult
from .query.parser import parse_s2sql
from .query.scheduler import QueryScheduler
from .store import (DeltaRefresher, RefreshResult, SemanticStore,
                    StoreRefresher)
from .store.refresh import RefreshPolicy


class S2SMiddleware:
    """The Syntactic-to-Semantic middleware."""

    def __init__(self, ontology: Ontology, *, strict_extraction: bool = False,
                 validate_instances: bool = True,
                 resilience: ResilienceConfig | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 store: "SemanticStore | RefreshPolicy | bool | None" = None,
                 concurrency: "ConcurrencyConfig | str | None" = None
                 ) -> None:
        self.ontology = ontology
        self.schema = OntologySchema(ontology)
        self.attribute_repository = AttributeRepository()
        self.source_repository = DataSourceRepository()
        self.transforms = TransformRegistry()
        self.extractors = ExtractorRegistry(self.transforms)
        self.strict_extraction = strict_extraction
        self.validate_instances = validate_instances
        self.tracer = tracer
        self._metrics = metrics if metrics is not None else DEFAULT_REGISTRY
        self.resilience = resilience or ResilienceConfig.conservative()
        concurrency_config = coerce_concurrency(concurrency)
        if concurrency_config is not None:
            # `concurrency=` is the one engine knob; it wins over whatever
            # the resilience config said.
            self.resilience = replace(self.resilience,
                                      concurrency=concurrency_config)
        self.store = self._build_store(store)
        #: Background workers handed out by ``store_refresher()`` /
        #: ``ingest_coordinator()``; ``close()`` sweeps whichever are
        #: still alive (weak refs — collected ones need no sweeping).
        self._owned_closables: "weakref.WeakSet" = weakref.WeakSet()
        self._closed = False
        self._rebuild()

    def _build_store(self, store) -> SemanticStore | None:
        """Resolve the ``store=`` kwarg: ``True`` enables a store with
        the default policy, a :class:`RefreshPolicy` enables one with
        that policy, a ready :class:`SemanticStore` is used as-is."""
        if store is None or store is False:
            return None
        if isinstance(store, SemanticStore):
            return store
        policy = store if isinstance(store, RefreshPolicy) else None
        return SemanticStore(policy=policy, clock=self.resilience.clock,
                             metrics=self._metrics,
                             namespace=self.ontology.base_iri)

    def _rebuild(self) -> None:
        """(Re)wire registrar, manager and query handler over the current
        repositories, preserving configuration and cumulative telemetry.

        Used at construction and after ``load_mapping``: strictness, the
        validation flag, the resilience config, the tracer/metrics wiring
        and the cumulative per-source health ledger (and retry counter)
        all survive a mapping reload; circuit breakers deliberately start
        closed again, since a reload may bring back repaired sources."""
        previous = getattr(self, "manager", None)
        self.registrar = AttributeRegistrar(
            self.schema, self.attribute_repository, self.source_repository)
        if self.store is not None:
            # A stale post-reload store must never be served (every
            # slice was generated against the old mapping).
            self.store.bump_generation()
        mode = self.resilience.concurrency.mode
        manager_cls = (ShardedExtractorManager if mode == "sharded"
                       else ExtractorManager)
        self.manager = manager_cls(
            self.attribute_repository, self.source_repository,
            self.extractors, strict=self.strict_extraction,
            resilience=self.resilience, metrics=self._metrics)
        binding = getattr(self, "_fleet_binding", None)
        if binding is not None and mode == "sharded":
            # Re-attach to the shared fleet: re-registering the tenant
            # hands the fleet a context factory over the *new*
            # repositories, and the fleet rebuilds its workers at the
            # next idle moment.
            self.manager.attach_fleet(binding[0], tenant=binding[1])
        if previous is not None:
            self.manager.health.merge_from(previous.health)
            self.manager.retry_count = previous.retry_count
            previous.close()  # stop a replaced sharded engine's fleet
        self.query_handler = QueryHandler(
            self.schema, self.manager,
            validate_instances=self.validate_instances,
            tracer=self.tracer, metrics=self._metrics, store=self.store)

    # -- registration -------------------------------------------------------

    def register_source(self, source: DataSource, *,
                        replace: bool = False) -> str:
        """Register a data source (paper section 2.3.2).

        Replacing a source expires the store materializations that hold
        it, so the next query reads the new one."""
        source_id = self.source_repository.register(source, replace=replace)
        if replace and self.store is not None:
            self.store.mark_stale(source_id)
        return source_id

    def register_attribute(self,
                           attribute: AttributePath | str | tuple[str, str],
                           rule: ExtractionRule, source_id: str,
                           *, replace: bool = False,
                           replica_of: str | None = None) -> MappingEntry:
        """Register an attribute mapping (3-step workflow of Figure 3).

        Pass ``replica_of=<primary source id>`` to register the entry as
        a failover replica: it is extracted only when the primary's
        retries are exhausted or its circuit breaker is open."""
        entry = self.registrar.register(attribute, rule, source_id,
                                        replace=replace,
                                        replica_of=replica_of)
        if self.store is not None:
            # Any mapping change can alter what a materialization would
            # contain (a new source for an already-materialized
            # attribute, a replaced rule): expire everything so the next
            # query re-extracts and re-folds under the new mapping.
            self.store.mark_stale()
        return entry

    def invalidate_cache(self, source_id: str | None = None) -> int:
        """Force-expire the store materializations that hold the source
        (every materialization when ``source_id`` is None), so the next
        query goes live.

        Returns how many were expired; 0 without a semantic store."""
        if self.store is None:
            return 0
        return self.store.mark_stale(source_id)

    def register_extractor(self, extractor: Extractor, *,
                           replace: bool = False) -> None:
        """Add support for a new source type (extensibility claim C4)."""
        self.extractors.register(extractor, replace=replace)

    def register_transform(self, name: str, function) -> None:
        """Add a named semantic-normalization transform."""
        self.transforms.register(name, function)

    # -- querying -----------------------------------------------------------

    def query(self, query: str, *,
              merge_key: list[str] | None = None) -> QueryResult:
        """Execute an S2SQL query; the single point of entry.  Blocking
        under every engine; a coroutine hands it to a worker thread."""
        return self.query_handler.execute(query, merge_key=merge_key)

    def query_many(self, queries: list[str], *,
                   merge_key: list[str] | None = None) -> list[QueryResult]:
        """Execute many S2SQL queries through one shared scan per source.

        Returns one :class:`QueryResult` per query, in submission order,
        instance-identical to ``[self.query(q) for q in queries]`` but
        visiting each data source once per batch instead of once per
        query (experiment E14; see docs/batching.md)."""
        return self.query_handler.execute_many(queries, merge_key=merge_key)

    def scheduler(self, *, max_batch_size: int = 16,
                  max_workers: int = 2) -> QueryScheduler:
        """A micro-batching scheduler over this middleware.

        Concurrently submitted queries are coalesced into shared scans
        without the callers coordinating; use as a context manager so
        the worker threads are shut down on exit."""
        return QueryScheduler(self.query_handler,
                              max_batch_size=max_batch_size,
                              max_workers=max_workers)

    def extract_all(self) -> ExtractionOutcome:
        """Eagerly materialize every mapped attribute (E1 ablation)."""
        return self.manager.extract_all_registered()

    # -- semantic store -----------------------------------------------------

    def _require_store(self) -> SemanticStore:
        if self.store is None:
            raise S2SError(
                "no semantic store configured; construct the middleware "
                "with store=True (or a RefreshPolicy / SemanticStore)")
        return self.store

    def _refresher(self) -> DeltaRefresher:
        """A delta refresher over the *current* manager and generator.

        Built per call (it is stateless) so a mapping reload's rebuilt
        manager is always the one refreshed through."""
        return DeltaRefresher(self._require_store(), self.manager,
                              self.query_handler.generator,
                              tracer=self.tracer, metrics=self._metrics)

    def sparql(self, query_text: str):
        """Run a SPARQL query against a snapshot of the semantic store.

        The snapshot (``store.graph``) holds every materialized entity's
        triples plus per-entity provenance (``store:source`` /
        ``store:recordIndex`` / ``store:entityClass``), each once.  It is
        read outside the store lock and sees one version of every slice.
        Returns a :class:`~repro.rdf.sparql.SparqlResult` for SELECT, a
        bool for ASK.  Raises when no store is configured."""
        from ..rdf.sparql import execute_sparql
        return execute_sparql(self._require_store().graph, query_text)

    def materialize(self, query: str) -> RefreshResult:
        """Materialize one query's answer into the store ahead of time
        (or force-refresh it if already materialized).  Subsequent
        ``query()`` calls with the same class and attribute set are
        answered from the store."""
        plan = self.query_handler.planner.plan(parse_s2sql(query))
        return self._refresher().materialize(plan)

    def refresh_store(self, *, force: bool = False) -> list[RefreshResult]:
        """Incrementally refresh every materialization: re-extract only
        sources whose content fingerprint changed (all reachable sources
        with ``force=True``); breaker-open sources keep serving
        last-known-good data."""
        return self._refresher().refresh(force=force)

    def store_status(self) -> list[dict]:
        """One freshness/content summary dict per materialization."""
        return self._require_store().status()

    def store_refresher(self, *, interval_seconds: float = 60.0
                        ) -> StoreRefresher:
        """A background refresher driving :meth:`refresh_store` every
        ``interval_seconds`` on the resilience clock.  Use as a context
        manager so the worker thread is shut down on exit."""
        self._require_store()
        refresher = StoreRefresher(self.refresh_store,
                                   interval_seconds=interval_seconds,
                                   clock=self.resilience.clock)
        self._owned_closables.add(refresher)
        return refresher

    # -- durable ingest -----------------------------------------------------

    def ingest_coordinator(self, journal_dir: str,
                           **options: Any) -> ShardCoordinator:
        """A :class:`ShardCoordinator` over this middleware's store,
        manager and generator, journaling under ``journal_dir``.

        Accepts every coordinator keyword (``n_workers``, ``pool``,
        ``retry_policy``, ``heartbeat_timeout``, ``stop_after``, …); the
        tracer and metrics default to the middleware's own."""
        options.setdefault("tracer", self.tracer)
        options.setdefault("metrics", self._metrics)
        coordinator = ShardCoordinator(self._require_store(), self.manager,
                                       self.query_handler.generator,
                                       journal_dir, **options)
        self._owned_closables.add(coordinator)
        return coordinator

    def _ingest_targets(self, queries: str | list[str]) -> list[IngestTarget]:
        targets = []
        for query in ([queries] if isinstance(queries, str) else queries):
            plan = self.query_handler.planner.plan(parse_s2sql(query))
            targets.append(IngestTarget(plan.class_name,
                                        list(plan.required_attributes)))
        return targets

    def ingest(self, queries: str | list[str], *, journal_dir: str,
               force: bool = False, **options: Any) -> IngestReport:
        """Materialize queries through the durable staged ingest pipeline.

        Unlike :meth:`materialize`, the work is journaled per source and
        survives a crash: rerunning with the same ``journal_dir`` resumes
        exactly the unfinished jobs.  See docs/ingest.md."""
        coordinator = self.ingest_coordinator(journal_dir, **options)
        try:
            return coordinator.run(self._ingest_targets(queries),
                                   force=force)
        finally:
            coordinator.close()

    def ingest_status(self, journal_dir: str) -> dict:
        """Journal-level summary of the ingest state under
        ``journal_dir`` (job counts, unfinished jobs, dead letters)."""
        coordinator = self.ingest_coordinator(journal_dir, fsync=False)
        try:
            return coordinator.status()
        finally:
            coordinator.close()

    def ingest_dead_letter(self, journal_dir: str) -> list[dict]:
        """The dead-letter ledger entries (quarantined jobs + errors)."""
        coordinator = self.ingest_coordinator(journal_dir, fsync=False)
        try:
            return coordinator.dead_letters()
        finally:
            coordinator.close()

    def ingest_requeue(self, journal_dir: str,
                       job_ids: list[str] | None = None) -> list[IngestJob]:
        """Release dead-letter jobs back to pending with a fresh retry
        budget; the next :meth:`ingest` run picks them up."""
        coordinator = self.ingest_coordinator(journal_dir)
        try:
            return coordinator.requeue(job_ids)
        finally:
            coordinator.close()

    # -- observability ------------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """The metrics registry this middleware reports into.

        Carries the cumulative counters fed by the pipeline hooks —
        store hits/misses, retries, breaker transitions, query and
        extraction latencies.  Render with ``metrics().render_text()``
        or export via :func:`repro.obs.metrics_to_json`."""
        return self._metrics

    def explain(self, query: str, *,
                merge_key: list[str] | None = None) -> str:
        """Execute ``query`` traced and return the rendered span tree.

        The executable analogue of the paper's Figure 5: one indented
        line per pipeline stage — parse, plan, the per-source / per-entry
        extraction fan-out (with retry, breaker and failover
        decisions), instance generation and condition filtering — each
        with its wall-clock share.  Uses a one-shot tracer on the
        resilience clock, so the permanently installed tracer (if any)
        and its kept traces are untouched."""
        tracer = Tracer(self.resilience.clock, keep_last=1)
        result = self.query_handler.execute(query, merge_key=merge_key,
                                            tracer=tracer)
        assert result.trace is not None
        return result.trace.render()

    def mapping_coverage(self) -> float:
        """Fraction of ontology attributes that have at least one mapping."""
        return self.registrar.coverage()

    def source_health(self) -> dict[str, SourceHealth]:
        """Cumulative per-source health across every extraction so far."""
        return self.manager.health.snapshot()

    def open_breakers(self) -> list[str]:
        """Sources whose circuit breaker is currently refusing calls."""
        if self.manager.breakers is None:
            return []
        return self.manager.breakers.open_sources()

    def unmapped_attributes(self) -> list[str]:
        """Attribute paths with no mapping yet, as strings."""
        return [str(path) for path in self.registrar.unregistered_paths()]

    def mapping_lines(self) -> list[str]:
        """The attribute repository in the paper's textual form."""
        return self.attribute_repository.paper_lines()

    def output_formats(self) -> tuple[str, ...]:
        """Formats QueryResult.serialize accepts."""
        return OUTPUT_FORMATS

    # -- persistence -----------------------------------------------------------

    def dump_mapping(self) -> str:
        """Serialize the mapping + source registries to JSON."""
        return dump_mapping(self.attribute_repository, self.source_repository)

    def load_mapping(self, text: str, source_factory) -> None:
        """Replace the registries from a JSON document; live connectors are
        re-created through ``source_factory(source_id, connection_info)``.

        The middleware's configuration (strictness, validation,
        resilience, observability) and its cumulative source-health
        history survive the reload — only the mapping state is swapped."""
        attributes, sources = load_mapping(text, source_factory)
        self.attribute_repository = attributes
        self.source_repository = sources
        self._rebuild()

    # -- lifecycle --------------------------------------------------------------

    def attach_fleet(self, fleet, *, tenant: str = "default") -> None:
        """Serve this middleware's sharded queries from a shared fleet.

        Only meaningful with ``concurrency="sharded"``: the manager
        registers itself as ``tenant`` on the given
        :class:`~repro.core.cluster.QueryShardCoordinator` instead of
        owning a private one.  The binding survives mapping reloads
        (each ``_rebuild`` re-registers the tenant over the new
        repositories).  The fleet's lifecycle belongs to its owner —
        ``close()`` here never shuts a shared fleet down."""
        self._fleet_binding = (fleet, tenant)
        if self.resilience.concurrency.mode == "sharded":
            self.manager.attach_fleet(fleet, tenant=tenant)

    def close(self) -> None:
        """Release every background resource this middleware owns.

        One idempotent call stops any :meth:`store_refresher` worker
        threads still alive, closes any :meth:`ingest_coordinator`
        journals still open and shuts down the sharded engine's worker
        fleet (a shared fleet is its owner's to stop); the serial and
        thread engines own no thread.  ``close()`` is for
        teardown, not a pause.  Also usable as a context manager::

            with B2BScenario().build_middleware() as s2s:
                s2s.query("SELECT Product")
        """
        if self._closed:
            return
        self._closed = True
        for closable in list(self._owned_closables):
            try:
                closable.close()
            except Exception as exc:  # teardown must not mask teardown
                warnings.warn(f"error closing {type(closable).__name__} "
                              f"during middleware shutdown: {exc}",
                              RuntimeWarning, stacklevel=2)
        manager = getattr(self, "manager", None)
        if manager is not None:
            manager.close()

    def __enter__(self) -> "S2SMiddleware":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"S2SMiddleware(ontology={self.ontology.name!r}, "
                f"sources={len(self.source_repository)}, "
                f"mappings={len(self.attribute_repository)})")
