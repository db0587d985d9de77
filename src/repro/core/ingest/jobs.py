"""The unit of durable ingest work: one source flowing through stages.

An :class:`IngestJob` is one (materialization key, data source) pair
travelling the EXTRACT → GENERATE waterfall.  Jobs are the granularity
of everything the pipeline guarantees: journal records, retry state,
dead-letter quarantine, worker assignment and crash recovery all speak
in jobs.  A job is deliberately small and JSON-serializable — the
journal persists *state transitions*, not payloads (EXTRACT's output is
checkpointed separately, see :mod:`repro.core.ingest.staging`).

Job identity is deterministic (``<class>:<attribute-digest>:<source>``)
so a restarted coordinator re-derives the same ids from the same
mapping and can match journaled history against a fresh plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...sources.base import stable_digest
from ..cluster.sharding import shard_of  # noqa: F401  (re-export: the
# canonical home moved to core/cluster when the query fleet landed, but
# `from repro.core.ingest.jobs import shard_of` keeps working.)

#: The waterfall, in execution order: read the source, then build the
#: instances the store commits (the paper's Instance Generator).
EXTRACT = "EXTRACT"
GENERATE = "GENERATE"
STAGES = (EXTRACT, GENERATE)

#: Job statuses.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
DEAD = "dead"

#: A materialization's identity, as carried by jobs: class + attribute ids.
JobKey = tuple[str, frozenset[str]]


def key_digest(class_name: str, attribute_ids: frozenset[str]) -> str:
    """A short stable digest of one materialization key."""
    return stable_digest(class_name, *sorted(attribute_ids))[:8]


def job_id_for(class_name: str, attribute_ids: frozenset[str],
               source_id: str) -> str:
    """Deterministic job identity: same mapping → same id across runs."""
    return f"{class_name}:{key_digest(class_name, attribute_ids)}:{source_id}"


def next_stage(stage: str) -> str | None:
    """The stage after ``stage``, or None after the last one."""
    index = STAGES.index(stage)
    return STAGES[index + 1] if index + 1 < len(STAGES) else None


@dataclass
class IngestJob:
    """One source's trip through the ingest waterfall.

    ``stage`` is the *next* stage to execute — it only advances when
    EXTRACT completes (and its output is checkpointed), so a job that
    failed or was abandoned mid-stage re-runs that stage.  ``attempts``
    and ``next_eligible_at`` are the per-job retry state: a failed job
    goes back to pending with a backoff computed from the shared
    :class:`~repro.core.resilience.RetryPolicy` on the injectable
    clock."""

    job_id: str
    source_id: str
    class_name: str
    attribute_ids: frozenset[str]
    stage: str = EXTRACT
    status: str = PENDING
    attempts: int = 0
    next_eligible_at: float = 0.0
    error: str | None = None
    #: content fingerprint probed at planning time; stamped on the
    #: stored slice so the next plan's cheap probe can skip the source.
    fingerprint: str | None = None
    enqueued_at: float = 0.0
    worker: int | None = None
    #: stages completed so far (observability; mirrors journal events)
    completed_stages: list[str] = field(default_factory=list)

    @property
    def key(self) -> JobKey:
        return (self.class_name, self.attribute_ids)

    @property
    def finished(self) -> bool:
        return self.status in (DONE, DEAD)

    def eligible(self, now: float) -> bool:
        """Whether the job may be dispatched at clock time ``now``."""
        return self.status == PENDING and now >= self.next_eligible_at

    # -- journal (de)serialization -------------------------------------

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "source_id": self.source_id,
            "class": self.class_name,
            "attributes": sorted(self.attribute_ids),
            "stage": self.stage,
            "status": self.status,
            "attempts": self.attempts,
            "next_eligible_at": self.next_eligible_at,
            "error": self.error,
            "fingerprint": self.fingerprint,
            "enqueued_at": self.enqueued_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IngestJob":
        """The job :meth:`to_dict` wrote; ``KeyError`` / ``TypeError`` /
        ``ValueError`` / ``OverflowError`` on anything else (the journal
        skips such records).  A ``merge_key`` journaled by 2.22 and
        earlier is ignored: the store holds unmerged entities."""
        job = cls(
            job_id=data["job_id"],
            source_id=data["source_id"],
            class_name=data["class"],
            attribute_ids=frozenset(data.get("attributes", [])),
            stage=data.get("stage", EXTRACT),
            status=data.get("status", PENDING),
            attempts=int(data.get("attempts", 0)),
            next_eligible_at=float(data.get("next_eligible_at", 0.0)),
            error=data.get("error"),
            fingerprint=data.get("fingerprint"),
            enqueued_at=float(data.get("enqueued_at", 0.0)),
        )
        if not all(type(text) is str for text in (
                job.job_id, job.source_id, job.class_name, job.stage,
                job.status, *job.attribute_ids)):
            raise TypeError("a job's ids, stage, status and attributes "
                            "are strings")
        return job

    def describe(self) -> str:
        state = self.status
        if self.status == PENDING and self.attempts:
            state = f"retry #{self.attempts}"
        return (f"{self.job_id} [{state}] next={self.stage} "
                f"done={'/'.join(self.completed_stages) or '-'}")
