"""The durable job queue: journal-backed state machine for ingest jobs.

Every transition goes through the queue, and the queue journals the
transition *before* mutating in-memory state — the disk is the source
of truth, memory is a cache of it.  The queue owns retry arithmetic
(attempts, backoff on the injectable clock via the shared
:class:`~repro.core.resilience.RetryPolicy`) and the dead-letter
decision (budget exhausted, or the error was not retryable).

:meth:`DurableJobQueue.recover` is the crash-recovery entry point: it
replays the journal, resurrects unfinished jobs as pending (counting
them in ``ingest_replayed_total``) and remembers finished ones so a
planner can skip re-enqueueing work that already completed.
"""

from __future__ import annotations

import random

from ...clock import Clock, SystemClock
from ...obs import MetricsRegistry
from ..resilience import RetryPolicy
from .jobs import DEAD, DONE, PENDING, RUNNING, IngestJob, next_stage
from .journal import DeadLetterLedger, IngestJournal


class DurableJobQueue:
    """Pending/running/finished ingest jobs, persisted through a journal."""

    def __init__(self, journal: IngestJournal, *,
                 clock: Clock | None = None,
                 retry_policy: RetryPolicy | None = None,
                 dead_letter: DeadLetterLedger | None = None,
                 metrics: MetricsRegistry | None = None,
                 rng: random.Random | None = None) -> None:
        self.journal = journal
        self.clock = clock or SystemClock()
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=3)
        self.dead_letter = dead_letter or DeadLetterLedger(
            journal.directory, fsync=journal.fsync, metrics=metrics)
        self.metrics = metrics
        self._rng = rng or self.retry_policy.make_rng()
        self._pending: dict[str, IngestJob] = {}
        self._running: dict[str, IngestJob] = {}
        self._finished: dict[str, IngestJob] = {}
        self.replayed = 0

    # -- bookkeeping -------------------------------------------------------

    def _count(self, state: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "ingest_jobs_total",
                "Ingest job state transitions by state").inc(amount,
                                                            state=state)

    @property
    def pending(self) -> list[IngestJob]:
        return sorted(self._pending.values(), key=lambda j: j.job_id)

    @property
    def running(self) -> list[IngestJob]:
        return sorted(self._running.values(), key=lambda j: j.job_id)

    @property
    def finished(self) -> dict[str, IngestJob]:
        return dict(self._finished)

    @property
    def drained(self) -> bool:
        return not self._pending and not self._running

    def get(self, job_id: str) -> IngestJob | None:
        return (self._pending.get(job_id) or self._running.get(job_id)
                or self._finished.get(job_id))

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {
            "pending": len(self._pending), "running": len(self._running)}
        for job in self._finished.values():
            tally[job.status] = tally.get(job.status, 0) + 1
        return tally

    # -- recovery ----------------------------------------------------------

    def recover(self) -> "DurableJobQueue":
        """Replay the journal: unfinished jobs come back as pending."""
        state = self.journal.replay()
        for job in state.unfinished():
            # In-flight work from the dead run restarts immediately: the
            # crash was ours, not the source's fault, so no backoff.
            job.next_eligible_at = 0.0
            self._pending[job.job_id] = job
            self.replayed += 1
        for job_id, job in state.finished().items():
            self._finished[job_id] = job
        if self.replayed and self.metrics is not None:
            self.metrics.counter(
                "ingest_replayed_total",
                "Unfinished jobs resurrected by journal replay"
            ).inc(self.replayed)
        return self

    # -- transitions (each one journaled first) ----------------------------

    def enqueue(self, job: IngestJob) -> IngestJob:
        now = self.clock.monotonic()
        job.status = PENDING
        job.enqueued_at = now
        self.journal.record_job("enqueue", job, now)
        self._pending[job.job_id] = job
        self._count("enqueued")
        return job

    def record_skip(self, job: IngestJob, reason: str) -> None:
        """Journal a planner decision not to enqueue (unchanged source)."""
        job.status = DONE
        self.journal.record_job("skip", job, self.clock.monotonic(),
                                reason=reason)
        self._finished[job.job_id] = job
        self._count("skipped")

    def eligible(self) -> list[IngestJob]:
        """Dispatchable jobs: pending, past their backoff, one per source
        (shard affinity is the caller's concern via ``shard_of``)."""
        now = self.clock.monotonic()
        return [job for job in self.pending if job.eligible(now)]

    def claim(self, job: IngestJob, worker: int) -> IngestJob:
        """pending → running, assigned to ``worker``."""
        del self._pending[job.job_id]
        job.status = RUNNING
        job.worker = worker
        self.journal.record_job("claim", job, self.clock.monotonic(),
                                worker=worker)
        self._running[job.job_id] = job
        return job

    def advance(self, job: IngestJob, completed_stage: str) -> IngestJob:
        """Record one stage's durable completion; bump the cursor."""
        following = next_stage(completed_stage)
        if following is not None:
            job.stage = following
        if completed_stage not in job.completed_stages:
            job.completed_stages.append(completed_stage)
        self.journal.record_job("stage", job, self.clock.monotonic(),
                                stage=completed_stage)
        return job

    def complete(self, job: IngestJob) -> IngestJob:
        """running → done."""
        self._running.pop(job.job_id, None)
        job.status = DONE
        job.worker = None
        self.journal.record_job("done", job, self.clock.monotonic())
        self._finished[job.job_id] = job
        self._count("done")
        return job

    def fail(self, job: IngestJob, error: str, *,
             retryable: bool = True) -> IngestJob:
        """running → pending-with-backoff, or → dead when out of road."""
        self._running.pop(job.job_id, None)
        job.worker = None
        job.attempts += 1
        job.error = error
        if retryable and job.attempts < self.retry_policy.max_attempts:
            delay = self.retry_policy.delay_for(job.attempts, self._rng)
            job.status = PENDING
            job.next_eligible_at = self.clock.monotonic() + delay
            self.journal.record_job("retry", job, self.clock.monotonic(),
                                    delay=delay)
            self._pending[job.job_id] = job
            self._count("retried")
            return job
        return self._bury(job, error, retryable=retryable)

    def _bury(self, job: IngestJob, error: str, *, retryable: bool
              ) -> IngestJob:
        job.status = DEAD
        job.error = error
        now = self.clock.monotonic()
        self.journal.record_job("dead", job, now, retryable=retryable)
        self.dead_letter.append(job, now)
        self._finished[job.job_id] = job
        self._count("dead")
        return job

    def release(self, job: IngestJob) -> IngestJob:
        """running → pending because the *worker* died (not the job).

        Worker death does not consume a retry attempt: the failure was
        infrastructure, and at-least-once redelivery is the contract."""
        self._running.pop(job.job_id, None)
        job.status = PENDING
        job.worker = None
        job.next_eligible_at = 0.0
        self.journal.record_job("released", job, self.clock.monotonic())
        self._pending[job.job_id] = job
        self._count("released")
        return job

    def requeue_dead(self, job_ids: set[str] | None = None
                     ) -> list[IngestJob]:
        """Move dead-letter jobs back to pending with a fresh budget."""
        targets = job_ids
        if targets is None:
            targets = {job.job_id for job in self.dead_letter.jobs()}
        revived = self.dead_letter.remove(targets)
        for job in revived:
            job.status = PENDING
            job.attempts = 0
            job.error = None
            job.next_eligible_at = 0.0
            self.journal.record_job("requeue", job, self.clock.monotonic())
            self._finished.pop(job.job_id, None)
            self._pending[job.job_id] = job
            self._count("requeued")
        return revived
