"""The shard coordinator: supervised, crash-recoverable ingest runs.

The :class:`ShardCoordinator` turns materialization targets into
per-source :class:`~repro.core.ingest.jobs.IngestJob`\\ s, partitions
them across a :class:`~repro.core.cluster.pool.WorkerPool` by stable
shard key, and supervises the run:

* every job transition is journaled (fsync'd) *before* taking effect,
  so a coordinator killed at any instruction boundary resumes exactly
  the unfinished jobs on restart (``recover()`` replay);
* worker death is detected by heartbeat age on the injectable clock
  (and by direct liveness checks); dead workers are restarted with
  jittered backoff and their in-flight jobs re-enqueued — at-least-once
  delivery, made effectively exactly-once by the store's idempotent
  per-source slice replacement;
* job failures feed the existing per-source circuit breakers, and
  breaker-open sources keep serving last-known-good data instead of
  burning the run's budget;
* jobs that exhaust their retry budget, or raise non-retryable errors
  (poison payloads), are quarantined to the dead-letter ledger and
  never block sibling shards.

Workers compute, the coordinator commits: all
:class:`~repro.core.store.SemanticStore` writes happen here, on the
event-drain path, which is what lets thread and subprocess pools behave
identically.

``stop_after=N`` is the crash seam for tests and the E17 benchmark: the
coordinator abandons the run (no clean shutdown record) after N
completed jobs, simulating sudden death mid-run.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any

from ...clock import Clock, SystemClock
from ...errors import S2SError
from ...obs import NULL_SPAN, MetricsRegistry, Tracer
from ..cluster.pool import (SubprocessWorkerPool, ThreadWorkerPool,
                            WorkerPool, wait_for_events)
from ..cluster.supervision import WorkerSupervisor, default_restart_policy
from ..extractor.manager import ExtractorManager
from ..instances.generator import InstanceGenerator
from ..resilience import RetryPolicy
from ..resilience.config import SHARDED_POOL_KINDS
from ..store.delta import DeltaRefresher
from ..store.store import (KEPT_STALE, REMOVED, SemanticStore, SliceWrite,
                           StoreKey)
from .jobs import (DEAD, DONE, EXTRACT, GENERATE, IngestJob, job_id_for,
                   shard_of)
from .journal import DeadLetterLedger, IngestJournal
from .queue import DurableJobQueue
from .staging import StagingArea
from .workers import WorkerContext, WorkItem, worker_loop


@dataclass
class IngestTarget:
    """One materialization to ingest: class + required attributes.

    No merge: the store holds every source's entities as generated,
    and a query's ``merge_key`` is applied when the answer is served."""

    class_name: str
    required: list  # list[AttributePath]

    @property
    def key(self) -> StoreKey:
        return (self.class_name,
                frozenset(str(path) for path in self.required))


@dataclass
class IngestReport:
    """What one coordinator run did."""

    run_id: str
    jobs_total: int = 0
    completed: int = 0
    replayed: int = 0
    skipped_unchanged: int = 0
    kept_stale: int = 0
    dead: int = 0
    released: int = 0
    worker_restarts: int = 0
    elapsed_seconds: float = 0.0
    #: True when the run ended without draining the queue (stop_after
    #: crash seam, or a shard exceeding its restart budget).
    aborted: bool = False
    trace: object | None = None
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "aborted" if self.aborted else "completed"
        return (f"run {self.run_id} {state}: {self.completed} done, "
                f"{self.replayed} replayed, "
                f"{self.skipped_unchanged} skipped, {self.dead} dead, "
                f"{self.worker_restarts} worker restarts")


class ShardCoordinator:
    """Drives durable staged ingest over a pool of shard workers.

    The drain loop blocks in
    :func:`~repro.core.cluster.pool.wait_for_events` until a worker
    reports or the next restart backoff / retry not-before comes due on
    ``clock`` — there is no poll interval to pass."""

    def __init__(self, store: SemanticStore, manager: ExtractorManager,
                 generator: InstanceGenerator, journal_dir: str, *,
                 n_workers: int = 2, pool: str = "thread",
                 clock: Clock | None = None,
                 retry_policy: RetryPolicy | None = None,
                 restart_policy: RetryPolicy | None = None,
                 heartbeat_timeout: float = 30.0,
                 max_worker_restarts: int = 3,
                 killable: Any = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 fsync: bool = True,
                 stop_after: int | None = None) -> None:
        if pool not in SHARDED_POOL_KINDS:
            raise ValueError(f"pool must be one of {SHARDED_POOL_KINDS}, "
                             f"not {pool!r}")
        self.store = store
        self.manager = manager
        self.generator = generator
        self.clock = clock or manager.config.clock or SystemClock()
        self.tracer = tracer
        self.metrics = metrics
        self.n_workers = n_workers
        self.pool_kind = pool
        self.heartbeat_timeout = heartbeat_timeout
        self.max_worker_restarts = max_worker_restarts
        self.killable = killable
        self.stop_after = stop_after
        self.restart_policy = restart_policy or default_restart_policy(
            max_worker_restarts)
        self.journal = IngestJournal(journal_dir, fsync=fsync,
                                     metrics=metrics)
        self.dead_letter = DeadLetterLedger(journal_dir, fsync=fsync,
                                            metrics=metrics)
        self.staging = StagingArea(journal_dir, fsync=fsync, metrics=metrics)
        self.queue = DurableJobQueue(
            self.journal, clock=self.clock,
            retry_policy=retry_policy or manager.config.retry,
            dead_letter=self.dead_letter, metrics=metrics).recover()
        #: job_id -> (mapping entries, the plan's unmapped attributes)
        self._entries: dict[str, tuple[list, list]] = {}
        self._keys: dict[str, StoreKey] = {}  # job_id -> store key
        self._job_spans: dict[str, Any] = {}

    # -- planning ----------------------------------------------------------

    def _refresher(self) -> DeltaRefresher:
        return DeltaRefresher(self.store, self.manager, self.generator)

    def plan(self, targets: list[IngestTarget], *, force: bool = False,
             root=NULL_SPAN) -> IngestReport:
        """Turn targets into enqueued jobs; returns a partial report
        carrying the skip/replay tallies (``run`` completes it).

        Planning is where crash recovery and change detection meet: a
        journaled-done job whose source fingerprint still matches is
        skipped; an unfinished journaled job is already pending from
        ``recover()`` and is only re-labelled; everything else gets a
        fresh job.  Fingerprints come from the read-only cheap probe
        (:meth:`DeltaRefresher.plan_changes`), so unchanged web sources
        never enqueue work — or cost a counted fetch."""
        report = IngestReport(run_id=uuid.uuid4().hex[:12])
        report.replayed = self.queue.replayed
        refresher = self._refresher()
        with root.child("plan", targets=len(targets)) as span:
            for target in targets:
                self._plan_target(target, refresher, force, report, span)
        report.jobs_total = len(self.queue.pending) + len(self.queue.running)
        return report

    def _plan_target(self, target: IngestTarget, refresher: DeltaRefresher,
                     force: bool, report: IngestReport, span) -> None:
        mat = self.store.ensure(target.class_name, list(target.required))
        delta = refresher.plan_changes(mat, force=force)
        schema = delta.schema
        for source_id in delta.removed:
            self.store.tombstone(mat.key, source_id)
            span.child("source", source=source_id,
                       verdict="tombstoned").finish()
        self.store.commit(mat.key, [SliceWrite(source_id, failed=True)
                                    for source_id in delta.kept_stale], None)
        for source_id in delta.kept_stale:
            report.kept_stale += 1
            span.child("source", source=source_id,
                       verdict="breaker-open").finish()
        for source_id in sorted(schema.by_source):
            if source_id in delta.kept_stale:
                continue
            job_id = job_id_for(target.class_name, mat.attribute_ids,
                                source_id)
            self._keys[job_id] = mat.key
            self._entries[job_id] = (list(schema.by_source[source_id]),
                                     list(schema.missing))
            existing = self.queue.get(job_id)
            if existing is not None and not existing.finished:
                # Resurrected by journal replay: resume, don't re-plan.
                span.child("source", source=source_id,
                           verdict="resumed").finish()
                continue
            fingerprint = delta.fingerprints.get(source_id)
            if source_id in delta.unchanged:
                finished = self.queue.finished.get(job_id)
                if (finished is None or finished.status == DONE):
                    report.skipped_unchanged += 1
                    self.queue.record_skip(
                        IngestJob(job_id, source_id, target.class_name,
                                  mat.attribute_ids,
                                  fingerprint=fingerprint),
                        "unchanged")
                    span.child("source", source=source_id,
                               verdict="unchanged").finish()
                    continue
            if existing is not None and existing.status == DEAD:
                # Quarantined: stays dead until an explicit requeue.
                span.child("source", source=source_id,
                           verdict="dead-letter").finish()
                continue
            job = IngestJob(job_id, source_id, target.class_name,
                            mat.attribute_ids, fingerprint=fingerprint)
            self.queue.enqueue(job)
            span.child("source", source=source_id,
                       verdict="enqueued").finish()

    # -- the run loop ------------------------------------------------------

    def _build_pool(self) -> WorkerPool:
        ctx = WorkerContext(self.manager.sources, self.generator,
                            killable=self.killable,
                            extractors=self.manager.extractors)
        pool = (SubprocessWorkerPool if self.pool_kind == "spawn"
                else ThreadWorkerPool)
        return pool(ctx, self.n_workers, loop=worker_loop,
                    name="ingest-worker")

    def run(self, targets: list[IngestTarget], *,
            force: bool = False) -> IngestReport:
        """Plan and drain: the whole ingest run, supervised."""
        started = time.perf_counter()
        root = (self.tracer.start("ingest", targets=len(targets),
                                  workers=self.n_workers,
                                  pool=self.pool_kind)
                if self.tracer is not None else NULL_SPAN)
        report = self.plan(targets, force=force, root=root)
        self.journal.record_run("started", report.run_id,
                                self.clock.monotonic(),
                                jobs=report.jobs_total)
        if self.metrics is not None:
            self.metrics.counter("ingest_runs_total",
                                 "coordinator ingest runs").inc()
        pool = self._build_pool()
        pool.start()
        try:
            self._drain(pool, report, root)
        finally:
            pool.shutdown()
            for span in self._job_spans.values():
                span.finish()
            self._job_spans.clear()
            root.finish()
        if not report.aborted:
            self.journal.record_run("finished", report.run_id,
                                    self.clock.monotonic(),
                                    completed=report.completed,
                                    dead=report.dead)
            self._touch_clean_targets(targets)
        report.elapsed_seconds = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.histogram(
                "ingest_run_seconds",
                "wall-clock time of one ingest run").observe(
                    report.elapsed_seconds)
        report.trace = (self.tracer.trace_of(root)
                        if self.tracer is not None else None)
        return report

    def _touch_clean_targets(self, targets: list[IngestTarget]) -> None:
        """Re-stamp materializations whose every job finished cleanly."""
        dead_keys = {self._keys.get(job.job_id)
                     for job in self.queue.finished.values()
                     if job.status == DEAD}
        for target in targets:
            if target.key not in dead_keys:
                mat = self.store.materialization(target.key)
                if mat is not None and mat.slices:
                    self.store.touch(target.key)

    def _drain(self, pool: WorkerPool, report: IngestReport, root) -> None:
        assigned: dict[int, str] = {}  # shard -> in-flight job_id
        supervisor = WorkerSupervisor(
            self.clock, heartbeat_timeout=self.heartbeat_timeout,
            restart_policy=self.restart_policy,
            max_restarts=self.max_worker_restarts, metrics=self.metrics)
        supervisor.reset(range(self.n_workers))
        events: list[dict] = []
        # Act on what is known, then wait: the first pass dispatches
        # before anything can block, the last returns without waiting
        # (the loop condition itself only guards an empty plan).
        while not self.queue.drained:
            if (self.stop_after is not None
                    and report.completed >= self.stop_after):
                # Simulated coordinator crash: walk away mid-run.  No
                # shutdown record, no store touch — recovery must come
                # entirely from the journal.
                report.aborted = True
                return
            for event in events:
                supervisor.beat(event["shard"])
                self._handle_event(event, assigned, report, root)
                if (self.stop_after is not None
                        and report.completed >= self.stop_after):
                    # Die exactly at the Nth completion, even when one
                    # event batch carries several — keeps the crash
                    # seam deterministic for tests and E17.
                    report.aborted = True
                    return
            if self._supervise(pool, supervisor, assigned, report):
                report.aborted = True
                return
            self._dispatch(pool, assigned, supervisor.restart_at, report,
                           root)
            if self.queue.drained:
                return
            now = self.clock.monotonic()
            events = wait_for_events(pool, self.clock, [
                *(at - now for at in supervisor.restart_at.values()),
                *(job.next_eligible_at - now for job in self.queue.pending
                  if job.next_eligible_at > now)])

    # -- event handling ----------------------------------------------------

    def _handle_event(self, event: dict, assigned: dict[int, str],
                      report: IngestReport, root) -> None:
        kind = event.get("kind")
        if kind == "beat":
            return
        job_id = event.get("job_id", "")
        job = self.queue.get(job_id)
        if job is None or job.finished:
            return  # late event from a worker declared dead; ignore
        span = self._job_spans.get(job_id, NULL_SPAN)
        if kind == "stage":
            # EXTRACT is the one stage that reports before ``done``.
            self.staging.checkpoint(job_id, event.get("payload"))
            self.queue.advance(job, EXTRACT)
            span.child(EXTRACT.lower()).finish()
            return
        shard = event.get("shard")
        if kind == "done":
            self._commit(job, event["payload"], event["errors"])
            self.queue.complete(job)
            self.staging.discard(job_id)
            report.completed += 1
            span.annotate(outcome="done")
            self._finish_span(job_id)
            if shard in assigned and assigned[shard] == job_id:
                del assigned[shard]
            return
        if kind == "failed":
            error = event.get("error", "unknown worker failure")
            retryable = bool(event.get("retryable", False))
            breaker = (self.manager.breakers.get(job.source_id)
                       if self.manager.breakers is not None else None)
            if breaker is not None and retryable:
                breaker.record_failure()
            failed = self.queue.fail(job, error, retryable=retryable)
            if failed.status == DEAD:
                report.dead += 1
                report.errors.append(f"{job_id}: {error}")
                span.fail(error)
                self._finish_span(job_id)
            else:
                span.annotate(retry=failed.attempts)
            if shard in assigned and assigned[shard] == job_id:
                del assigned[shard]

    def _commit(self, job: IngestJob, write: SliceWrite,
                errors: list) -> None:
        """The only store write path: one idempotent per-source commit.

        Re-delivery of the same write (at-least-once redelivery after a
        worker or coordinator death) replaces the slice with identical
        content — effectively exactly-once."""
        key = self._keys.get(job.job_id, (job.class_name, job.attribute_ids))
        self.store.commit(key, [write], errors)
        breaker = (self.manager.breakers.get(job.source_id)
                   if self.manager.breakers is not None else None)
        if breaker is not None:
            breaker.record_success()

    def _finish_span(self, job_id: str) -> None:
        span = self._job_spans.pop(job_id, None)
        if span is not None:
            span.finish()

    # -- supervision -------------------------------------------------------

    def _supervise(self, pool: WorkerPool, supervisor: WorkerSupervisor,
                   assigned: dict[int, str],
                   report: IngestReport) -> bool:
        """Detect dead workers, release their jobs, schedule restarts.

        The detection/backoff policy lives in the shared
        :class:`~repro.core.cluster.supervision.WorkerSupervisor` (the
        query fleet runs the same one); this method maps its verdict
        onto ingest semantics — releasing in-flight jobs back to the
        queue, and aborting the run when a shard exceeded its restart
        budget.  Returns True on abort."""
        # Only shards with work in flight or routed to them matter: a
        # dead-but-idle worker must not burn the restart budget (and
        # certainly must not abort the run) while other shards drain.
        relevant = set(assigned)
        relevant.update(shard_of(job.source_id, self.n_workers)
                        for job in self.queue.pending)
        verdict = supervisor.supervise(pool, busy=set(assigned),
                                       relevant=relevant)
        dead_shards = list(verdict.deaths)
        if verdict.aborted is not None:
            dead_shards.append(verdict.aborted)
        for shard in dead_shards:
            if shard not in assigned:
                continue
            job = self.queue.get(assigned.pop(shard))
            if job is not None and not job.finished:
                self.queue.release(job)
                report.released += 1
                self._job_spans.get(job.job_id, NULL_SPAN).annotate(
                    released=True)
        report.worker_restarts += len(verdict.deaths)
        if verdict.aborted is not None:
            report.errors.append(
                f"worker shard {verdict.aborted} exceeded its restart "
                f"budget ({self.max_worker_restarts})")
            return True
        return False

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, pool: WorkerPool, assigned: dict[int, str],
                  restart_at: dict[int, float], report: IngestReport,
                  root) -> None:
        for job in self.queue.eligible():
            shard = shard_of(job.source_id, self.n_workers)
            if shard in assigned or shard in restart_at:
                continue  # worker busy or awaiting restart
            if not pool.alive(shard):
                continue  # will be picked up by supervision
            if not self._breaker_admits(job, report):
                continue
            planned = self._entries.get(job.job_id)
            if planned is None:
                # A replayed job whose mapping vanished since the crash.
                self.queue.claim(job, shard)
                self.queue.fail(job, "no mapping entries for source "
                                f"{job.source_id!r} after recovery",
                                retryable=False)
                report.dead += 1
                continue
            extracted = self.staging.latest(job.job_id, job.stage)
            # The claim journals where the job really resumes: a stage
            # past EXTRACT without an intact checkpoint (or one this
            # release does not know) restarts at EXTRACT.
            job.stage = EXTRACT if extracted is None else GENERATE
            self.queue.claim(job, shard)
            assigned[shard] = job.job_id
            if self.tracer is not None and job.job_id not in self._job_spans:
                self._job_spans[job.job_id] = root.child(
                    "job", job_id=job.job_id, source=job.source_id,
                    shard=shard, attempt=job.attempts + 1)
            entries, missing = planned
            pool.submit(shard, WorkItem(job.to_dict(), entries,
                                        extracted=extracted,
                                        missing=missing))

    def _breaker_admits(self, job: IngestJob, report: IngestReport) -> bool:
        """Dispatch-time breaker gate.

        An open breaker's source is committed as a failed write with no
        entities, and the store's verdict decides the job: a stored
        slice is kept, stale, and the job completes as kept-stale;
        nothing stored → the job fails retryably (backoff), eventually
        dying to the dead-letter ledger if the source never heals."""
        if self.manager.breakers is None:
            return True
        breaker = self.manager.breakers.get(job.source_id)
        if breaker.allow():
            return True
        key = self._keys.get(job.job_id, (job.class_name, job.attribute_ids))
        self.queue.claim(job, -1)
        try:
            verdict = self.store.commit(
                key, [SliceWrite(job.source_id, failed=True)],
                None)[job.source_id]
        except S2SError:
            # A replayed job whose target this run did not plan may
            # have no materialization at all: nothing is stored.
            verdict = REMOVED
        if verdict == KEPT_STALE:
            self.queue.complete(job)
            report.kept_stale += 1
        else:
            self.queue.fail(job, f"circuit breaker open for "
                            f"{job.source_id!r}", retryable=True)
            if self.queue.get(job.job_id).status == DEAD:
                report.dead += 1
        return False

    # -- operator surface --------------------------------------------------

    def status(self) -> dict:
        """Journal-level run status (for `ingest status`)."""
        state = self.journal.replay()
        counts = state.counts()
        return {
            "journal": str(self.journal.path),
            "jobs": counts,
            "unfinished": [job.describe() for job in state.unfinished()],
            "dead_letter": len(self.dead_letter.entries()),
            "last_run": state.runs[-1] if state.runs else None,
        }

    def dead_letters(self) -> list[dict]:
        """Dead-letter entries with their captured errors."""
        return self.dead_letter.entries()

    def requeue(self, job_ids: list[str] | None = None) -> list[IngestJob]:
        """Release dead-letter jobs back to pending (fresh budget)."""
        targets = set(job_ids) if job_ids else None
        return self.queue.requeue_dead(targets)

    def close(self) -> None:
        self.journal.close()
