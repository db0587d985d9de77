"""The query shard coordinator: an interleaving scheduler over one fleet.

One consumer query becomes one *sub-plan per shard*: the extraction
schema is filtered down to each shard's sources (replica mappings ride
along with their primary) and queued as a work item.  Unlike the PR 9
coordinator — which held a lock for a whole query's fan-out, so
concurrent callers serialized even while workers idled — the scheduler
admits **multiple in-flight requests at once** and interleaves their
shard items over the same workers:

* a background dispatcher thread blocks on the pool's event queue
  until a worker reports or the next timer (a request deadline, a
  restart backoff, the liveness probe) comes due on the injectable
  clock (:func:`~repro.core.cluster.pool.wait_for_events`), and keeps a
  per-request completion map keyed by the existing request ids;
* freed workers are fed from a fair-share ready queue — round-robin
  across in-flight requests, with per-tenant quotas
  (:class:`~repro.core.resilience.config.FleetConfig.tenant_quota`)
  bounding how many workers one tenant may occupy on a shared fleet;
* worker death mid-item is detected by liveness checks and heartbeat
  age on the injectable clock (:class:`~repro.core.cluster.supervision.
  WorkerSupervisor`, the same policy the ingest pipeline uses); only
  the dead worker's item is released — back to the *front* of its
  request's queue — while every other request keeps streaming.  A
  worker that exhausts its restart budget degrades its current item's
  sources into reported problems instead of failing the answer.

Admission is quota-checked up front: a query past the fleet-wide
``max_inflight_requests`` cap (or a tenant past its shard quota)
raises :class:`~repro.errors.FleetQuotaExceeded`, which the server
maps onto its RETRY_AFTER pushback frame.

Thread-pool workers share the coordinator manager's live collaborators
(breakers, source repositories, clock), so sharded
answers are entity-for-entity identical to in-process execution.
Spawn-subprocess workers hold *pickled replicas* of the repositories,
taken when the fleet starts; the coordinator watches every registered
tenant's source-repository mutation version and rebuilds the fleet —
at the next idle moment — when any of them change.  See
``docs/cluster.md`` for the full failure model and scheduler shape.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ...clock import Clock
from ...errors import FleetQuotaExceeded, S2SError
from ...obs import NULL_SPAN, MetricsRegistry
from ..extractor.extractors import ExtractorRegistry
from ..extractor.manager import ExtractorManager
from ..extractor.schema import ExtractionSchema
from ..mapping.rules import TransformRegistry
from ..resilience import Deadline
from ..resilience.config import FleetConfig, ResilienceConfig
from .pool import (SubprocessWorkerPool, ThreadWorkerPool, WorkerPool,
                   wait_for_events, worker_loop)
from .sharding import partition_sources
from .supervision import WorkerSupervisor

@dataclass
class QueryWorkerContext:
    """Everything a query worker needs, picklable as a unit.

    Thread workers share the coordinator manager's live collaborators
    (``extractors``, ``breakers``); those do not cross the
    spawn boundary — subprocess children rebuild a default extractor
    registry and their own (per-child) breakers from the resilience
    config, which is the same trade a distributed deployment makes.
    """

    attributes: Any  # AttributeRepository
    sources: Any  # DataSourceRepository
    resilience: ResilienceConfig
    strict: bool = False
    extractors: ExtractorRegistry | None = None
    breakers: Any = None  # CircuitBreakerRegistry | None, thread-shared only
    killable: Any = None  # KillableWorker | None
    manager: ExtractorManager | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["extractors"] = None  # transform lambdas don't pickle
        state["breakers"] = None
        state["manager"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def manager_for_worker(self) -> ExtractorManager:
        """The (lazily built) in-process manager a worker extracts with.

        Thread workers adopt the coordinator manager's breaker registry
        so breaker state behaves exactly as in-process execution; a
        spawned child builds its own.
        Metrics stay off — the coordinator records per-query metrics
        once, on the merged outcome."""
        if self.manager is None:
            manager = ExtractorManager(
                self.attributes, self.sources,
                self.extractors or ExtractorRegistry(TransformRegistry()),
                strict=self.strict,
                resilience=self.resilience, metrics=None)
            if self.breakers is not None:
                manager.breakers = self.breakers
            self.manager = manager
        return self.manager


@dataclass
class FleetWorkerContext:
    """A fleet's worker context: one per-tenant context each (a fleet of
    one middleware has the one tenant ``"default"``).

    Work items carry their tenant name; the worker resolves the right
    :class:`QueryWorkerContext` (and therefore the right repositories
    and breakers) per item.  Picklable as a unit — each tenant
    context applies its own ``__getstate__`` discipline — so the spawn
    pool ships a whole multi-tenant world to each child."""

    contexts: dict[str, QueryWorkerContext]

    def for_tenant(self, tenant: str) -> QueryWorkerContext:
        return self.contexts[tenant]


@dataclass
class QueryWorkItem:
    """One dispatched sub-plan: a shard's slice of one query's schema."""

    request_id: str
    shard: int
    source_ids: list[str]
    schema: ExtractionSchema
    deadline_seconds: float | None = None
    tenant: str = "default"


def run_query_item(shard: int, item: QueryWorkItem, ctx: FleetWorkerContext,
                   emit, *, cancel: Any = None,
                   in_subprocess: bool = False) -> None:
    """Run one sub-plan, emitting progress events.

    ``emit`` receives plain dicts.  ``shard`` is the *worker index*
    (for supervisor heartbeats); events also carry ``item_shard`` — the
    item's own shard id — because the interleaving scheduler assigns
    items to whichever worker frees up, so the two no longer coincide.
    :class:`WorkerCrashed` propagates — the caller's loop dies with it,
    which is the point."""
    emit({"kind": "beat", "shard": shard, "request_id": item.request_id,
          "item_shard": item.shard})
    worker_ctx = ctx.for_tenant(item.tenant)
    if worker_ctx.killable is not None:
        probe = item.source_ids[0] if item.source_ids else ""
        worker_ctx.killable.check(probe, "QUERY", cancel=cancel,
                                  in_subprocess=in_subprocess)
    manager = worker_ctx.manager_for_worker()
    deadline = (None if item.deadline_seconds is None
                else Deadline(item.deadline_seconds,
                              worker_ctx.resilience.clock))
    try:
        outcome = manager.extract([], schema=item.schema, deadline=deadline)
    except S2SError as exc:
        # Strict-mode extraction raises instead of recording problems;
        # surface the failure so the coordinator can re-raise it.
        emit({"kind": "failed", "shard": shard,
              "request_id": item.request_id, "item_shard": item.shard,
              "error": str(exc)})
        return
    emit({"kind": "done", "shard": shard, "request_id": item.request_id,
          "item_shard": item.shard, "payload": outcome})


#: The query worker main loop: the shared fleet loop running
#: :func:`run_query_item` on every sub-plan.
query_worker_loop = partial(worker_loop, run_query_item)


@dataclass
class ShardRunResult:
    """What one fleet execution produced, before merging."""

    partials: dict[int, Any] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)
    timed_out: set[int] = field(default_factory=set)
    items: dict[int, QueryWorkItem] = field(default_factory=dict)
    redispatches: int = 0


class _InflightRequest:
    """One admitted query's scheduler state: the completion map entry."""

    __slots__ = ("request_id", "tenant", "deadline", "result", "ready",
                 "running", "pending", "spans", "run_span", "finished",
                 "peak_inflight")

    def __init__(self, request_id: str, tenant: str,
                 deadline: Deadline) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.deadline = deadline
        self.result = ShardRunResult()
        #: (shard id, clock time it became ready) waiting for a worker,
        #: in dispatch order.  A dead worker's item goes back to the
        #: *front* so recovery does not queue behind the request's own
        #: backlog.
        self.ready: deque[tuple[int, float]] = deque()
        #: shard id -> worker index, for items currently executing.
        self.running: dict[int, int] = {}
        #: Shard ids not yet resolved (done, failed or timed out).
        self.pending: set[int] = set()
        self.spans: dict[int, Any] = {}
        self.run_span: Any = NULL_SPAN
        self.finished = threading.Event()
        self.peak_inflight = 1

    def backlog(self) -> int:
        """In-flight shard items (running + queued) — the quota unit."""
        return len(self.running) + len(self.ready)


class QueryShardCoordinator:
    """Owns one query fleet: lifecycle, interleaved dispatch, supervision.

    The fleet is persistent across queries: workers start on first use
    and survive until :meth:`shutdown` (or a source-repository mutation
    forces a rebuild so spawned children never serve a stale replica of
    the mapping).  Multiple queries are in flight at once — see the
    module docstring for the scheduling model.  One coordinator can
    serve several tenants (:meth:`register_tenant`), which is how the
    server shares one fleet across namespaces.

    The per-worker restart budget is reclaimed whenever the fleet goes
    *idle* (no requests in flight) — the interleaved generalization of
    PR 9's per-query reset: a worker lost to an earlier query's chaos
    never pre-spends a fresh workload's budget, and a budget can never
    be reset under a query that is still draining."""

    def __init__(self, *, clock: Clock,
                 context_factory: Callable[[], QueryWorkerContext]
                 | None = None,
                 fleet: FleetConfig | None = None,
                 restart_policy=None,
                 metrics: MetricsRegistry | None = None,
                 source_version: Callable[[], int] | None = None) -> None:
        self.fleet_config = fleet or FleetConfig()
        self.clock = clock
        self.metrics = metrics
        #: Scripted fault injection consulted when the fleet starts
        #: (chaos tests set this before the first query).
        self.killable: Any = None
        self.supervisor = WorkerSupervisor(
            clock, heartbeat_timeout=self.fleet_config.heartbeat_timeout,
            restart_policy=restart_policy,
            max_restarts=self.fleet_config.max_worker_restarts,
            metrics=metrics)
        self._tenants: dict[str, dict] = {}
        self._registrations = 0
        self._pool: WorkerPool | None = None
        self._versions: dict[str, tuple] = {}
        self._request_seq = 0
        self._lock = threading.RLock()
        self._requests: dict[str, _InflightRequest] = {}
        self._rr: deque[str] = deque()
        #: worker index -> (request_id, shard id) currently assigned.
        self._assignments: dict[int, tuple[str, int]] = {}
        self._dispatcher: threading.Thread | None = None
        self._draining = False
        if context_factory is not None:
            self.register_tenant("default", context_factory,
                                 source_version=source_version)

    # -- compat mirrors of the fleet config ---------------------------------

    @property
    def n_workers(self) -> int:
        return self.fleet_config.n_workers

    @property
    def pool_kind(self) -> str:
        return self.fleet_config.pool

    @property
    def max_worker_restarts(self) -> int:
        return self.fleet_config.max_worker_restarts

    # -- tenants -------------------------------------------------------------

    def register_tenant(self, name: str,
                        context_factory: Callable[[], QueryWorkerContext],
                        *, source_version: Callable[[], int] | None = None
                        ) -> None:
        """Serve ``name``'s queries from this fleet.

        Re-registering a tenant (a middleware rebuilt after a mapping
        reload) replaces its context factory; the fleet rebuilds at the
        next idle moment so workers pick up the new world."""
        with self._lock:
            self._registrations += 1
            self._tenants[name] = {
                "context_factory": context_factory,
                "source_version": source_version,
                "generation": self._registrations,
            }

    def _tenant_versions(self) -> dict[str, tuple]:
        return {name: (entry["generation"],
                       entry["source_version"]()
                       if entry["source_version"] is not None else None)
                for name, entry in self._tenants.items()}

    # -- fleet lifecycle ---------------------------------------------------

    def _build_pool(self) -> WorkerPool:
        contexts: dict[str, QueryWorkerContext] = {}
        for name, entry in self._tenants.items():
            context = entry["context_factory"]()
            context.killable = self.killable
            contexts[name] = context
        ctx = FleetWorkerContext(contexts)
        if self.pool_kind == "spawn":
            return SubprocessWorkerPool(ctx, self.n_workers,
                                        loop=query_worker_loop,
                                        name="query-worker")
        return ThreadWorkerPool(ctx, self.n_workers,
                                loop=query_worker_loop,
                                name="query-worker")

    def ensure_started(self) -> None:
        """Start the fleet, or rebuild it after a source mutation.

        Spawned children work on repository replicas pickled at fleet
        start; when any registered tenant's live source repository has
        mutated since (its version moved), the stale fleet is torn
        down and respawned so children never answer from a replica the
        caller already replaced.  The rebuild is deferred while
        requests are in flight — they drain on the pool they started
        on — and happens at the next idle admission."""
        with self._lock:
            versions = self._tenant_versions()
            if (self._pool is not None and versions != self._versions
                    and not self._requests):
                self._teardown_locked()
            if self._pool is None:
                if not self._tenants:
                    raise S2SError("the query fleet has no tenants "
                                   "registered")
                pool = self._build_pool()
                pool.start()
                self._pool = pool
                self._versions = versions
                self.supervisor.reset(range(self.n_workers))
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, args=(pool,),
                    name="query-fleet-dispatcher", daemon=True)
                self._dispatcher.start()

    def _teardown_locked(self) -> threading.Thread | None:
        """Stop the pool and wake the dispatcher; returns its thread.

        Only legal with no requests in flight (callers drain or cancel
        first).  The dispatcher cannot be joined under the lock it
        needs: it exits once it observes the pool swap — the identity
        check that keeps a lame-duck dispatcher from ever touching the
        successor fleet's state — and ``shutdown`` joins it unlocked."""
        pool, dispatcher = self._pool, self._dispatcher
        self._pool = None
        self._dispatcher = None
        self._assignments.clear()
        if pool is not None:
            pool.wake()
            pool.shutdown()
        return dispatcher

    def shutdown(self, *, cancel: bool = False,
                 timeout: float = 30.0) -> None:
        """Stop the fleet; the next query transparently restarts it.

        Never tears the pool out from under an in-flight ``execute``:
        by default shutdown *drains* — it blocks new admissions and
        waits (up to ``timeout``) for in-flight requests to finish on
        the live fleet.  With ``cancel=True`` (or on drain timeout)
        the remaining items are failed instead, so every waiter wakes
        with a degraded — but well-formed — result."""
        with self._lock:
            self._draining = True
            if cancel:
                self._cancel_requests_locked(
                    "query fleet shut down while the shard was in flight")
            waiting = list(self._requests.values())
        try:
            # One real-time budget for the whole drain, not one per
            # waiter.
            budget = Deadline(timeout)
            for request in waiting:
                request.finished.wait(timeout=budget.remaining())
            with self._lock:
                # Drain timed out (or raced a late admission): degrade
                # whatever is left rather than wedging the waiters.
                if self._requests:
                    self._cancel_requests_locked(
                        "query fleet shut down while the shard was "
                        "in flight")
                dispatcher = self._teardown_locked()
            if dispatcher is not None:
                dispatcher.join(timeout=5.0)
        finally:
            self._draining = False

    def _cancel_requests_locked(self, message: str) -> None:
        for request in list(self._requests.values()):
            for shard in sorted(request.pending):
                request.result.failures[shard] = message
                span = request.spans.get(shard)
                if span is not None:
                    span.fail(message)
                    span.finish()
            request.pending.clear()
            request.ready.clear()
            request.running.clear()
            self._finalize_locked(request)

    @property
    def started(self) -> bool:
        return self._pool is not None

    def snapshot(self) -> dict:
        """The fleet block for STATUS replies and ``client --status``."""
        with self._lock:
            config = self.fleet_config
            return {
                "workers": config.n_workers,
                "pool": config.pool,
                "shared": len(self._tenants) > 1,
                "tenants": sorted(self._tenants),
                "started": self._pool is not None,
                "inflight_requests": len(self._requests),
                "ready_queue_depth": sum(len(r.ready)
                                         for r in self._requests.values()),
                "max_inflight_requests": config.max_inflight_requests,
                "tenant_quota": config.tenant_quota,
            }

    # -- admission ----------------------------------------------------------

    def execute(self, schema: ExtractionSchema, *, deadline: Deadline,
                span=NULL_SPAN, tenant: str = "default") -> ShardRunResult:
        """Admit one query's fan-out and block until its shards resolve.

        Returns the per-shard partial outcomes plus the shards that
        failed (restart budget exhausted, or a strict-mode error) or
        timed out; merging is the caller's job
        (:func:`~repro.core.cluster.manager.merge_partials`).  Raises
        :class:`~repro.errors.FleetQuotaExceeded` when an admission
        quota refuses the query."""
        request = self._admit(schema, deadline, span, tenant)
        request.finished.wait()
        return request.result

    def _admit(self, schema: ExtractionSchema, deadline: Deadline, span,
               tenant: str) -> _InflightRequest:
        with self._lock:
            if self._draining:
                raise S2SError("the query fleet is shutting down")
            if tenant not in self._tenants:
                raise S2SError(f"tenant {tenant!r} is not registered "
                               f"with this fleet")
            config = self.fleet_config
            if (config.max_inflight_requests is not None
                    and len(self._requests)
                    >= config.max_inflight_requests):
                self._reject_locked(
                    tenant, "fleet",
                    f"fleet is at its in-flight request quota "
                    f"({config.max_inflight_requests})")
            if config.tenant_quota is not None:
                backlog = sum(request.backlog()
                              for request in self._requests.values()
                              if request.tenant == tenant)
                if backlog >= config.tenant_quota:
                    self._reject_locked(
                        tenant, "tenant",
                        f"tenant {tenant!r} is at its in-flight shard "
                        f"quota ({config.tenant_quota})")
            self.ensure_started()
            if not self._requests:
                # The restart budget is per workload: a worker lost to
                # an earlier query's chaos must not pre-spend a fresh
                # one's.  Only an idle fleet may reclaim it — a reset
                # mid-flight would erase another query's death
                # bookkeeping.
                self.supervisor.reset(range(self.n_workers))
            self._request_seq += 1
            request_id = f"q{self._request_seq}"
            request = _InflightRequest(request_id, tenant, deadline)
            request.run_span = span.child(
                "shard.interleave", tenant=tenant,
                inflight=len(self._requests) + 1)
            shard_map = partition_sources(schema.source_ids(),
                                          self.n_workers)
            for shard, source_ids in sorted(shard_map.items()):
                item = QueryWorkItem(request_id, shard, source_ids,
                                     schema.restricted_to(source_ids),
                                     tenant=tenant)
                request.result.items[shard] = item
                request.pending.add(shard)
                request.ready.append((shard, self.clock.monotonic()))
                request.spans[shard] = request.run_span.child(
                    "shard.enqueue", shard=shard, sources=len(source_ids))
            self._requests[request_id] = request
            self._rr.append(request_id)
            inflight = len(self._requests)
            for other in self._requests.values():
                other.peak_inflight = max(other.peak_inflight, inflight)
            if not request.pending:
                self._finalize_locked(request)
            else:
                self._feed_workers_locked()
                # The dispatcher may be blocked with no timer (idle) or
                # a later one than this request's deadline.
                self._pool.wake()
            self._update_gauges()
            return request

    def _reject_locked(self, tenant: str, scope: str, message: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "fleet_quota_rejections_total",
                "fleet admissions refused by quota").inc(
                    tenant=tenant, scope=scope)
        raise FleetQuotaExceeded(message, tenant=tenant, scope=scope)

    # -- the dispatcher ------------------------------------------------------

    def _dispatch_loop(self, pool: WorkerPool) -> None:
        """Apply events, expire, supervise, feed, then wait for the next
        event or timer — for one pool's lifetime.  A lame-duck
        dispatcher (its pool replaced under it) exits without touching
        the successor's state."""
        events: list[dict] = []
        while True:
            with self._lock:
                if self._pool is not pool:
                    return
                for event in events:
                    self._apply_event_locked(event)
                self._expire_deadlines_locked()
                for request in [r for r in self._requests.values()
                                if not r.pending]:
                    self._finalize_locked(request)
                self._supervise_locked(pool)
                self._feed_workers_locked()
                self._update_gauges()
                now = self.clock.monotonic()
                # Idle: no timer at all; admission and teardown wake us.
                timers = None if not self._requests else [
                    *(at - now for at in self.supervisor.restart_at.values()),
                    *(request.deadline.remaining()
                      for request in self._requests.values())]
            events = wait_for_events(pool, self.clock, timers)

    def _apply_event_locked(self, event: dict) -> None:
        worker = event.get("shard")
        if worker is not None:
            self.supervisor.beat(worker)
        kind = event.get("kind")
        if kind not in ("done", "failed"):
            return
        request_id = event.get("request_id")
        item_shard = event.get("item_shard", worker)
        if self._assignments.get(worker) == (request_id, item_shard):
            # The worker finished its assigned item (or a late event
            # from a cancelled incarnation landed *after* the same item
            # was re-assigned to it — either way this worker is free).
            del self._assignments[worker]
        request = self._requests.get(request_id)
        if request is None or item_shard not in request.pending:
            return  # stale event from an abandoned attempt
        # Whichever worker ``running`` names: an earlier incarnation
        # reporting after its worker was declared dead and the item
        # re-dispatched is just as correct an answer, and the pending
        # check above already dropped items that had resolved.
        request.running.pop(item_shard, None)
        request.pending.discard(item_shard)
        span = request.spans[item_shard]
        if kind == "done":
            request.result.partials[item_shard] = event["payload"]
            span.annotate(outcome="done")
        else:
            request.result.failures[item_shard] = event.get(
                "error", "unknown worker failure")
            span.fail(request.result.failures[item_shard])
        span.finish()

    def _expire_deadlines_locked(self) -> None:
        for request in list(self._requests.values()):
            if not request.pending or not request.deadline.expired:
                continue
            for shard in sorted(request.pending):
                span = request.spans[shard]
                span.annotate(outcome="deadline")
                span.finish()
            request.result.timed_out = set(request.pending)
            request.pending.clear()
            request.ready.clear()
            # Workers still chewing on abandoned items stay assigned —
            # they are genuinely busy — and free themselves when their
            # (now stale) events arrive.
            request.running.clear()
            self._finalize_locked(request)

    def _supervise_locked(self, pool: WorkerPool) -> None:
        busy = set(self._assignments)
        has_ready = any(request.ready
                        for request in self._requests.values())
        # A dead-but-idle worker only matters when there is queued work
        # it could be serving; otherwise it must not burn the restart
        # budget while other shards drain.
        relevant = set(range(pool.n_workers)) if has_ready else set(busy)
        verdict = self.supervisor.supervise(pool, busy=busy,
                                            relevant=relevant)
        for worker in verdict.deaths:
            self._release_worker_locked(worker, aborted=False)
        if verdict.aborted is not None:
            self._release_worker_locked(verdict.aborted, aborted=True)

    def _release_worker_locked(self, worker: int, *,
                               aborted: bool) -> None:
        """A worker died (or aborted past its budget): release its item.

        Only the dead worker's item moves — to the front of its own
        request's ready queue (or, past the budget, into failures) —
        while every other request keeps streaming."""
        assignment = self._assignments.pop(worker, None)
        if assignment is None:
            return
        request_id, shard = assignment
        request = self._requests.get(request_id)
        if request is None or shard not in request.pending:
            return
        request.running.pop(shard, None)
        if aborted:
            message = (f"worker shard {worker} exceeded its restart "
                       f"budget ({self.max_worker_restarts})")
            request.result.failures[shard] = message
            request.pending.discard(shard)
            request.spans[shard].fail(message)
            request.spans[shard].finish()
        else:
            request.ready.appendleft((shard, self.clock.monotonic()))
            request.result.redispatches += 1
            request.spans[shard].annotate(redispatched=True)

    def _feed_workers_locked(self) -> None:
        """Fair-share dispatch: free workers take the next ready item,
        round-robin across requests, skipping tenants at quota."""
        pool = self._pool
        if pool is None or not self._rr:
            return
        free = [worker for worker in range(self.n_workers)
                if worker not in self._assignments
                and worker not in self.supervisor.restart_at
                and pool.alive(worker)]
        if not free:
            return
        quota = self.fleet_config.tenant_quota
        occupancy: dict[str, int] = {}
        for request_id, _shard in self._assignments.values():
            request = self._requests.get(request_id)
            if request is not None:
                occupancy[request.tenant] = \
                    occupancy.get(request.tenant, 0) + 1
        skipped = 0
        while free and self._rr and skipped < len(self._rr):
            request_id = self._rr[0]
            self._rr.rotate(-1)
            request = self._requests.get(request_id)
            if request is None or not request.ready:
                skipped += 1
                continue
            if (quota is not None
                    and occupancy.get(request.tenant, 0) >= quota):
                skipped += 1
                continue
            shard, ready_at = request.ready.popleft()
            worker = free.pop(0)
            item = request.result.items[shard]
            item.deadline_seconds = (None if request.deadline.unbounded
                                     else request.deadline.remaining())
            self._assignments[worker] = (request_id, shard)
            request.running[shard] = worker
            occupancy[request.tenant] = \
                occupancy.get(request.tenant, 0) + 1
            queued = self.clock.monotonic() - ready_at
            request.spans[shard].annotate(
                worker=worker, queued_ms=round(queued * 1000.0, 3))
            pool.submit(worker, item)
            if self.metrics is not None:
                self.metrics.counter(
                    "shard_dispatches_total",
                    "query sub-plans dispatched to shard workers").inc(
                        shard=shard)
                self.metrics.histogram(
                    "fleet_dispatch_wait_seconds",
                    "time a ready shard item waited for a free worker"
                ).observe(queued, tenant=request.tenant)
            skipped = 0

    def _finalize_locked(self, request: _InflightRequest) -> None:
        self._requests.pop(request.request_id, None)
        try:
            self._rr.remove(request.request_id)
        except ValueError:
            pass
        result = request.result
        outcome = ("deadline" if result.timed_out
                   else "degraded" if result.failures else "done")
        request.run_span.annotate(outcome=outcome,
                                  redispatches=result.redispatches,
                                  peak_inflight=request.peak_inflight)
        request.run_span.finish()
        self._update_gauges()
        request.finished.set()

    def _update_gauges(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(
            "fleet_interleaved_requests",
            "queries currently interleaved over the fleet").set(
                len(self._requests))
        self.metrics.gauge(
            "fleet_ready_queue_depth",
            "shard items waiting for a free worker").set(
                sum(len(request.ready)
                    for request in self._requests.values()))
