"""Durable staged ingest: jobs, journal, shard workers, supervision.

The ROADMAP's "sharded, multi-process execution with a durable job
queue" item: materialization and delta refresh become explicit
per-source jobs flowing through EXTRACT → GENERATE, journaled durably at
every transition and recoverable by replay after a crash.  See
docs/ingest.md for the lifecycle, the journal format and the
at-least-once + idempotent-commit contract.
"""

from .coordinator import IngestReport, IngestTarget, ShardCoordinator
from .jobs import (DEAD, DONE, EXTRACT, GENERATE, PENDING, RUNNING,
                   STAGES, IngestJob, job_id_for, next_stage, shard_of)
from .journal import (DEAD_LETTER_NAME, JOURNAL_NAME, DeadLetterLedger,
                      IngestJournal, JournalState, read_jsonl)
from .queue import DurableJobQueue
from .staging import StagingArea
from .workers import (ExtractBatch, WorkerContext, WorkItem, execute_stage,
                      run_item, worker_loop)

__all__ = [
    "DEAD", "DONE", "EXTRACT", "GENERATE", "PENDING", "RUNNING", "STAGES",
    "DEAD_LETTER_NAME", "JOURNAL_NAME",
    "DeadLetterLedger", "DurableJobQueue", "ExtractBatch", "IngestJob",
    "IngestJournal", "IngestReport", "IngestTarget", "JournalState",
    "ShardCoordinator", "StagingArea",
    "WorkItem", "WorkerContext",
    "execute_stage", "job_id_for", "next_stage", "read_jsonl", "run_item",
    "shard_of", "worker_loop",
]
