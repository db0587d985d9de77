"""The sharded extraction engine: ``ConcurrencyConfig(mode="sharded")``.

:class:`ShardedExtractorManager` is the fleet-backed sibling of the
serial/thread engines: it keeps the whole
:class:`~repro.core.extractor.manager.ExtractorManager` contract —
same schema handling, same outcome shape, same health/problem
semantics — but runs step 4 by handing per-shard sub-plans to a
:class:`~repro.core.cluster.coordinator.QueryShardCoordinator` and
merging the partial outcomes back into one.  The middleware selects it
from the concurrency mode, so
``query``/``query_many`` route through the fleet
with no caller changes, and the server gets one fleet per tenant for
free (each tenant middleware owns its manager owns its coordinator).

Merging reproduces the in-process fold exactly: record sets, timings
and problems are folded in globally sorted source order, per-source
health ledgers are summed across shards (a replica serving two shards'
primaries merges), and unmapped attributes are stamped once from the
full schema.  Shards lost to worker death come back as per-source
problems — a degraded answer, never a lost query.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ...errors import S2SError
from ...obs import NULL_SPAN
from ..extractor.manager import (AnySpan, ExtractionOutcome,
                                 ExtractionProblem, ExtractorManager,
                                 timed_out_problem)
from ..extractor.schema import ExtractionSchema
from ..resilience import Deadline, SourceHealth
from ..resilience.config import ConcurrencyConfig
from .coordinator import (QueryShardCoordinator, QueryWorkerContext,
                          ShardRunResult)


def merge_partials(outcome: ExtractionOutcome, run: ShardRunResult,
                   deadline: Deadline) -> ExtractionOutcome:
    """Fold per-shard partial outcomes into one, in-process-identical.

    The in-process engine folds per-source results sorted by source id;
    shards are disjoint source sets, so re-sorting the union restores
    exactly that order.  Shards that timed out mark every source with a
    deadline problem (same wording as the in-process parallel path);
    shards whose worker died beyond the restart budget degrade their
    sources into reported problems."""
    problems_by_source: dict[str, list[ExtractionProblem]] = {}
    health: dict[str, SourceHealth] = {}
    sources: set[str] = set()
    for shard in sorted(run.partials):
        partial: ExtractionOutcome = run.partials[shard]
        for problem in partial.problems:
            problems_by_source.setdefault(problem.source_id,
                                          []).append(problem)
        for source_id, record_set in partial.record_sets.items():
            outcome.record_sets[source_id] = record_set
            sources.add(source_id)
        for source_id, seconds in partial.per_source_seconds.items():
            outcome.per_source_seconds[source_id] = seconds
            sources.add(source_id)
        for source_id, ledger in partial.health.items():
            merged = health.get(source_id)
            if merged is None:
                health[source_id] = replace(ledger)
            else:
                merged.merge(ledger)
    for shard in sorted(run.timed_out):
        for source_id in run.items[shard].source_ids:
            entry = health.setdefault(source_id, SourceHealth(source_id))
            entry.deadline_hits += 1
            problems_by_source.setdefault(source_id, []).append(
                timed_out_problem(source_id, deadline))
            outcome.per_source_seconds.setdefault(source_id,
                                                  deadline.seconds or 0.0)
            sources.add(source_id)
    for shard in sorted(run.failures):
        error = run.failures[shard]
        for source_id in run.items[shard].source_ids:
            entry = health.setdefault(source_id, SourceHealth(source_id))
            entry.last_error = error
            problems_by_source.setdefault(source_id, []).append(
                ExtractionProblem(source_id, None,
                                  f"shard worker lost: {error}"))
            sources.add(source_id)
    outcome.record_sets = {sid: outcome.record_sets[sid]
                           for sid in sorted(outcome.record_sets)}
    outcome.per_source_seconds = {sid: outcome.per_source_seconds[sid]
                                  for sid in sorted(
                                      outcome.per_source_seconds)}
    outcome.problems = [problem
                        for sid in sorted(problems_by_source)
                        for problem in problems_by_source[sid]]
    outcome.health = {sid: health[sid] for sid in sorted(health)}
    return outcome


class ShardedExtractorManager(ExtractorManager):
    """Extractor manager whose step 4 runs on a supervised worker fleet.

    Construction is cheap: the fleet starts lazily on the first
    extraction and persists across queries until :meth:`close` (the
    middleware calls it on teardown and mapping reloads).  The
    coordinator *interleaves* extractions — concurrent callers' shard
    items share the workers under a fair-share scheduler — so
    ``query_many`` and concurrent server requests overlap on one fleet;
    admission quotas (:class:`~repro.core.resilience.config.FleetConfig.
    max_inflight_requests` / ``tenant_quota``) bound the backlog.

    By default each manager owns its coordinator.  :meth:`attach_fleet`
    instead binds the manager to a *shared* fleet (the server's
    ``--fleet N:pool:shared`` mode) as one registered tenant; a shared
    fleet's lifecycle belongs to whoever built it, so :meth:`close`
    leaves it running."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        concurrency = self.config.concurrency
        self._tenant = "default"
        self._fleet_shared = False
        self.fleet = QueryShardCoordinator(
            fleet=concurrency.fleet_config(),
            clock=self.config.clock,
            context_factory=self._worker_context,
            metrics=self.metrics,
            source_version=lambda: self.sources.version)

    def attach_fleet(self, fleet: QueryShardCoordinator, *,
                     tenant: str) -> None:
        """Route this manager's extractions through a shared fleet.

        Replaces the manager-owned coordinator: this manager's world is
        registered (or re-registered, after a mapping reload) under
        ``tenant``, and :meth:`close` no longer shuts the fleet down."""
        fleet.register_tenant(tenant, self._worker_context,
                              source_version=lambda: self.sources.version)
        self.fleet = fleet
        self._tenant = tenant
        self._fleet_shared = True

    def _worker_context(self) -> QueryWorkerContext:
        """The per-fleet worker context (shared live for thread pools,
        pickled per child for spawn pools).

        Workers extract their shard item with the in-process thread
        engine, so the waits of an item's sources overlap: one fan-out
        thread per source of the item (at most 16), named after the
        worker and living for that one item."""
        worker_resilience = replace(self.config,
                                    concurrency=ConcurrencyConfig("thread"))
        return QueryWorkerContext(
            attributes=self.attributes,
            sources=self.sources,
            resilience=worker_resilience,
            strict=self.strict,
            extractors=self.extractors,
            breakers=self.breakers)

    def extract(self, required, *, deadline=None, span: AnySpan = NULL_SPAN,
                schema: ExtractionSchema | None = None) -> ExtractionOutcome:
        ctx, outcome = self._begin_run(
            required, deadline, schema, span, engine="sharded",
            workers=self.fleet.n_workers, pool=self.fleet.pool_kind)
        if ctx.schema.by_source:
            run = self.fleet.execute(ctx.schema, deadline=ctx.deadline,
                                     span=span, tenant=self._tenant)
            if self.strict and run.failures:
                raise S2SError(next(iter(run.failures.values())))
            merge_started = time.perf_counter()
            with span.child("shard.merge", shards=len(run.partials),
                            failed=len(run.failures),
                            timed_out=len(run.timed_out)):
                merge_partials(outcome, run, ctx.deadline)
            if self.metrics is not None:
                self.metrics.histogram(
                    "shard_merge_seconds",
                    "time merging per-shard partial outcomes").observe(
                        time.perf_counter() - merge_started)
        # Worker-side retries surface on the coordinator counter so
        # `manager.retry_count` reads the same as in-process.
        self.retry_count += sum(ledger.retries
                                for ledger in outcome.health.values())
        return self._finish_run(ctx, outcome)

    def close(self) -> None:
        """Stop the fleet; the manager stays usable (lazy restart).

        A shared fleet is left running — its owner (the server) shuts
        it down once, after every tenant middleware has closed."""
        if not self._fleet_shared:
            self.fleet.shutdown()
