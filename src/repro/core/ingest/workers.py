"""Supervised ingest workers: thread and subprocess behind one protocol.

A worker owns one *shard* (a stable partition of the source space, see
:func:`~repro.core.ingest.jobs.shard_of`) and runs each job's EXTRACT →
GENERATE waterfall, reporting progress to the coordinator as plain-dict
events on a results queue:

* ``beat`` — liveness heartbeat, emitted when a job is picked up (every
  event counts as one; the coordinator stamps receipt time on its own
  clock, so heartbeat detection works identically for threads and
  subprocesses, and under :class:`~repro.clock.FakeClock`);
* ``stage`` — EXTRACT completed, carrying its :class:`ExtractBatch`
  (the coordinator checkpoints it and journals the transition);
* ``done`` — GENERATE completed: ``payload`` is the
  :class:`~repro.core.store.store.SliceWrite` to commit and ``errors``
  its generation error entries;
* ``failed`` — the job raised; ``retryable`` says whether the queue
  should back off and retry or dead-letter it.

Workers *compute*; the coordinator *commits*.  No worker ever touches
the :class:`~repro.core.store.SemanticStore` or the journal — that is
what makes the two pool flavours interchangeable: a subprocess child
works on pickled copies of the sources and its mutations are discarded,
while the committed results flow back through the event queue either
way.

Subprocess workers use the ``spawn`` start method deliberately: children
re-import and re-pickle everything (no forked shared state), so the
pickling contract the thread pool never exercises is enforced in tests.
Custom user-registered transform *functions* do not cross the boundary —
children rebuild a default :class:`~repro.core.mapping.rules.\
TransformRegistry` (built-ins plus ``scale:``/``map:`` forms); mappings
needing bespoke transforms should use thread workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ...errors import (CircuitOpenError, PoisonPayloadError, S2SError,
                       TransientSourceError)
from ...sources.flaky import KillableWorker
from ..cluster.pool import worker_loop as _generic_worker_loop
from ..extractor.extractors import ExtractorRegistry
from ..extractor.manager import ExtractionOutcome
from ..extractor.records import SourceRecordSet
from ..instances.generator import InstanceGenerator
from ..mapping.rules import TransformRegistry
from ..store.snapshot import fingerprint_source
from ..store.store import SliceWrite
from .jobs import EXTRACT, GENERATE, IngestJob


@dataclass
class WorkerContext:
    """Everything a worker needs to run stages, picklable as a unit.

    ``extractors`` rides along for thread workers only — subprocess
    children rebuild a fresh registry (transform lambdas don't pickle).
    """

    sources: Any  # DataSourceRepository
    generator: InstanceGenerator
    killable: KillableWorker | None = None
    extractors: ExtractorRegistry | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["extractors"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def registry(self) -> ExtractorRegistry:
        if self.extractors is None:
            self.extractors = ExtractorRegistry(TransformRegistry())
        return self.extractors


@dataclass
class ExtractBatch:
    """EXTRACT output: raw record set + the source's content
    fingerprint taken just before it was read."""

    record_set: SourceRecordSet
    fingerprint: str | None = None


@dataclass
class WorkItem:
    """One dispatched job: the job plus everything stage-running needs.

    ``extracted`` is the job's intact EXTRACT checkpoint, so a resumed
    job runs GENERATE without reading its source again; ``missing`` is
    the plan's unmapped attributes, so the job's error entries name them
    exactly as every other store filler's do."""

    job: dict
    entries: list  # list[MappingEntry]
    extracted: ExtractBatch | None = None
    missing: list = field(default_factory=list)  # list[AttributePath]


def execute_stage(stage: str, job: IngestJob, item: WorkItem, payload: Any,
                  ctx: WorkerContext, *, cancel: Any = None,
                  in_subprocess: bool = False) -> Any:
    """Run one stage of one job; returns the stage's output payload."""
    if ctx.killable is not None:
        ctx.killable.check(job.source_id, stage, cancel=cancel,
                           in_subprocess=in_subprocess)
    if stage == EXTRACT:
        source = ctx.sources.get(job.source_id)
        extractor = ctx.registry().for_source(source)
        # Before the read: see snapshot.fingerprint_sources.
        fingerprint = fingerprint_source(source)
        record_set = SourceRecordSet(job.source_id)
        for fragment in extractor.extract_many(source, item.entries):
            record_set.add(fragment)
        return ExtractBatch(record_set, fingerprint)
    if stage == GENERATE:
        batch: ExtractBatch = payload
        record_sets = ({job.source_id: batch.record_set}
                       if batch.record_set.fragments else {})
        outcome = ExtractionOutcome(
            record_sets=record_sets,
            missing_attributes=list(item.missing),
            per_source_seconds={job.source_id: 0.0})
        generation = ctx.generator.generate(outcome, job.class_name)
        return (SliceWrite(job.source_id, generation.entities,
                           batch.fingerprint),
                list(generation.errors.entries))
    raise S2SError(f"unknown ingest stage {stage!r}")


def run_item(shard: int, item: WorkItem, ctx: WorkerContext, emit, *,
             cancel: Any = None, in_subprocess: bool = False) -> None:
    """Run one work item's remaining stages, emitting progress events.

    ``emit`` receives plain dicts.  :class:`WorkerCrashed` propagates —
    the caller's loop dies with it, which is the point."""
    job = IngestJob.from_dict(item.job)
    emit({"kind": "beat", "shard": shard, "job_id": job.job_id})
    try:
        batch = item.extracted
        if batch is None:
            batch = execute_stage(EXTRACT, job, item, None, ctx,
                                  cancel=cancel, in_subprocess=in_subprocess)
            emit({"kind": "stage", "shard": shard, "job_id": job.job_id,
                  "stage": EXTRACT, "payload": batch})
        write, errors = execute_stage(GENERATE, job, item, batch, ctx,
                                      cancel=cancel,
                                      in_subprocess=in_subprocess)
        emit({"kind": "done", "shard": shard, "job_id": job.job_id,
              "payload": write, "errors": errors})
    except (TransientSourceError, CircuitOpenError) as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": True})
    except PoisonPayloadError as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": False})
    except S2SError as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": False})


#: The ingest worker main loop: the shared fleet loop running
#: :func:`run_item` on every work item.
worker_loop = partial(_generic_worker_loop, run_item)

