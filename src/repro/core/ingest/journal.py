"""Durable persistence for the ingest pipeline: journal + dead letters.

The :class:`IngestJournal` is an append-only JSONL file of job state
transitions.  Every record is one JSON object on one line, written,
flushed and ``fsync``'d before the transition is considered to have
happened — so what the journal says occurred, occurred, even if the
process dies on the next instruction.  Recovery is replay: read the
records in order, fold them into per-job state, and any job whose last
event is not terminal is *unfinished* and must be re-run.

Corruption is degraded gracefully, never fatally (a crashed writer can
leave a torn final line; a torn line must not brick the pipeline): the
first garbled record ends the usable prefix, the original file is
quarantined under a ``.corrupt`` suffix, the good prefix is rewritten in
place, a warning is logged and ``ingest_journal_corrupt_total`` is
incremented.  The same policy covers the :class:`DeadLetterLedger`, a
sibling JSONL file holding quarantined jobs and their captured errors.
"""

from __future__ import annotations

import io
import json
import logging
import os
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

from ...obs import MetricsRegistry
from .jobs import DEAD, DONE, PENDING, RUNNING, IngestJob

logger = logging.getLogger("repro.core.ingest")

JOURNAL_NAME = "journal.jsonl"
DEAD_LETTER_NAME = "dead_letter.jsonl"


def _quarantine(path: Path, good_records: list[dict],
                metrics: MetricsRegistry | None, kind: str) -> None:
    """Rename the damaged file aside and rewrite the good prefix."""
    corrupt = path.with_name(path.name + ".corrupt")
    # A prior quarantine may already sit there; keep the newest evidence.
    if corrupt.exists():
        corrupt.unlink()
    path.rename(corrupt)
    with open(path, "w", encoding="utf-8") as handle:
        for record in good_records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    logger.warning(
        "corrupt %s record in %s: quarantined to %s, continuing from "
        "%d good record(s)", kind, path, corrupt.name, len(good_records))
    if metrics is not None:
        metrics.counter(
            "ingest_journal_corrupt_total",
            "Corrupt persistence files quarantined during recovery"
        ).inc(kind=kind)


def read_jsonl(path: Path, *, metrics: MetricsRegistry | None = None,
               kind: str = "journal") -> list[dict]:
    """Read a JSONL file, quarantining it at the first garbled record.

    Returns the records of the longest valid prefix.  A record must be a
    JSON *object*; a decodable scalar on a line is still corruption, and
    so is a line that is not UTF-8, nests too deep or holds an integer
    too long to convert (each line is decoded on its own, so a bad byte
    costs only its line and what follows).
    """
    if not path.exists():
        return []
    records: list[dict] = []
    damaged = False
    with open(path, "rb") as handle:
        for line in handle:
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                record = json.loads(text)
            except (ValueError, RecursionError):  # JSON, UTF-8, int limit
                damaged = True
                break
            if not isinstance(record, dict):
                damaged = True
                break
            records.append(record)
    if damaged:
        _quarantine(path, records, metrics, kind)
    return records


def _job_of(record: dict) -> IngestJob | None:
    """The job a journal or dead-letter record carries, or None when it
    carries none that decodes."""
    payload = record.get("job")
    if not isinstance(payload, dict):
        return None
    try:
        return IngestJob.from_dict(payload)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None  # OverflowError: int(Infinity), float(10**400)


class IngestJournal:
    """Append-only JSONL log of ingest runs and job transitions.

    ``fsync=False`` trades durability for speed in benchmarks that
    measure pipeline overhead rather than disk behaviour; the default is
    the durable path.
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_NAME
        self.fsync = fsync
        self.metrics = metrics
        self._handle: io.TextIOWrapper | None = None

    # -- writing -----------------------------------------------------------

    def _file(self) -> io.TextIOWrapper:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync)."""
        handle = self._file()
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def record_run(self, event: str, run_id: str, t: float,
                   **extra: Any) -> None:
        """Run-level bracket events (started / finished / aborted)."""
        self.append({"type": "run", "event": event, "run_id": run_id,
                     "t": t, **extra})

    def record_job(self, event: str, job: IngestJob, t: float,
                   **extra: Any) -> None:
        """One job state transition; carries the job's full state so
        replay needs no cross-record joins."""
        self.append({"type": "job", "event": event, "t": t,
                     "job": job.to_dict(), **extra})

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- replay ------------------------------------------------------------

    def records(self) -> list[dict]:
        """All readable records (quarantines damage as a side effect)."""
        self.close()  # release the append handle before any rewrite
        return read_jsonl(self.path, metrics=self.metrics, kind="journal")

    def replay(self) -> "JournalState":
        """Fold the journal into the latest known state of every job."""
        state = JournalState()
        for record in self.records():
            state.apply(record)
        return state


class JournalState:
    """The result of replaying a journal: per-job latest state."""

    def __init__(self) -> None:
        self.jobs: dict[str, IngestJob] = {}
        self.events: dict[str, list[str]] = {}
        self.runs: list[dict] = []
        self.last_run_id: str | None = None

    def apply(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "run":
            self.runs.append(record)
            if record.get("event") == "started":
                self.last_run_id = record.get("run_id")
            return
        if rtype != "job":
            return
        job = _job_of(record)
        if job is None:
            return
        event = str(record.get("event", ""))
        previous = self.jobs.get(job.job_id)
        if previous is not None:
            job.completed_stages = list(previous.completed_stages)
        if event == "stage":
            stage = record.get("stage")
            if (stage and isinstance(stage, str)
                    and stage not in job.completed_stages):
                job.completed_stages.append(stage)
        self.jobs[job.job_id] = job
        self.events.setdefault(job.job_id, []).append(event)

    def unfinished(self) -> list[IngestJob]:
        """Jobs whose last journaled state is not terminal.

        A job journaled as ``running`` was in flight when the process
        died — replay returns it as pending so it is re-run (at-least-
        once; the store commit makes re-application idempotent)."""
        return sorted(
            (replace(job, status=PENDING,
                     worker=job.worker if job.status == PENDING else None,
                     completed_stages=list(job.completed_stages))
             for job in self.jobs.values()
             if job.status in (RUNNING, PENDING)), key=lambda j: j.job_id)

    def finished(self) -> dict[str, IngestJob]:
        return {job_id: job for job_id, job in self.jobs.items()
                if job.status in (DONE, DEAD)}

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for job in self.jobs.values():
            tally[job.status] = tally.get(job.status, 0) + 1
        return tally


class DeadLetterLedger:
    """Quarantine file for jobs that exhausted retries or hit poison.

    Append-only in normal operation; :meth:`remove` (the requeue path)
    rewrites the file without the released entries, which is safe
    because requeue is an operator action, not a hot-path write."""

    def __init__(self, directory: str | Path, *, fsync: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / DEAD_LETTER_NAME
        self.fsync = fsync
        self.metrics = metrics

    def append(self, job: IngestJob, t: float) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"t": t, "job": job.to_dict(), "error": job.error},
                sort_keys=True) + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def entries(self) -> list[dict]:
        return read_jsonl(self.path, metrics=self.metrics,
                          kind="dead_letter")

    def jobs(self) -> Iterator[IngestJob]:
        for entry in self.entries():
            job = _job_of(entry)
            if job is not None:
                yield job

    def remove(self, job_ids: set[str]) -> list[IngestJob]:
        """Drop entries for ``job_ids``; returns the removed jobs."""
        kept: list[dict] = []
        removed: list[IngestJob] = []
        for entry in self.entries():
            job = _job_of(entry)
            if job is not None and job.job_id in job_ids:
                removed.append(job)
            else:
                kept.append(entry)
        with open(self.path, "w", encoding="utf-8") as handle:
            for entry in kept:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        return removed


# DEAD is re-exported for callers folding ledger entries back to jobs.
__all__ = ["IngestJournal", "JournalState", "DeadLetterLedger",
           "read_jsonl", "JOURNAL_NAME", "DEAD_LETTER_NAME", "DEAD"]
