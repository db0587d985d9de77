"""EXTRACT checkpoints: the payload half of crash recovery.

The journal records *that* a job got past EXTRACT; the staging area
keeps what EXTRACT read, the one stage output that is costly to
recompute (it costs a source read), so a resumed job runs GENERATE on
it instead of reading its source again.  There is one checkpoint per
job, pickled and fsync'd like a journal record.  It is an optimization,
never a correctness dependency: a missing or corrupt checkpoint
quarantines the file (``.corrupt``) and the job simply re-runs from
EXTRACT — at-least-once execution plus the store's idempotent commit
make the re-run harmless.
"""

from __future__ import annotations

import glob
import logging
import os
import pickle
from pathlib import Path
from typing import Any

from ...obs import MetricsRegistry
from .jobs import EXTRACT

logger = logging.getLogger("repro.core.ingest")

STAGING_DIR = "staging"


class StagingArea:
    """Durable per-job EXTRACT checkpoints."""

    def __init__(self, directory: str | Path, *, fsync: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        self.directory = Path(directory) / STAGING_DIR
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.metrics = metrics

    @staticmethod
    def _stem(job_id: str) -> str:
        # job ids contain ':'; keep filenames portable.
        return job_id.replace(":", "_").replace("/", "_")

    def _path(self, job_id: str) -> Path:
        return self.directory / f"{self._stem(job_id)}.{EXTRACT}.pkl"

    def checkpoint(self, job_id: str, payload: Any) -> None:
        """Durably record EXTRACT's output for ``job_id``."""
        with open(self._path(job_id), "wb") as handle:
            pickle.dump(payload, handle)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def load(self, job_id: str) -> Any:
        """The job's EXTRACT checkpoint, or None when there is none.

        Unpicklable/corrupt checkpoints are quarantined and reported as
        absent — the caller falls back to re-running EXTRACT."""
        path = self._path(job_id)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            corrupt = path.with_name(path.name + ".corrupt")
            if corrupt.exists():
                corrupt.unlink()
            path.rename(corrupt)
            logger.warning("corrupt staging checkpoint %s quarantined to %s",
                           path.name, corrupt.name)
            if self.metrics is not None:
                self.metrics.counter(
                    "ingest_journal_corrupt_total",
                    "Corrupt persistence files quarantined during recovery"
                ).inc(kind="staging")
            return None

    def latest(self, job_id: str, stage: str) -> Any:
        """What a job journaled at ``stage`` resumes from: its intact
        EXTRACT checkpoint once it is past EXTRACT, else None (run
        EXTRACT).  Any stage other than EXTRACT counts as past it — a
        2.22 journal's later stages, or one this release does not know."""
        return None if stage == EXTRACT else self.load(job_id)

    def discard(self, job_id: str) -> None:
        """Drop every checkpoint of a finished job: its EXTRACT one, and
        any an earlier release wrote for a later stage (2.22's
        ``<job>.STAGE.pkl`` and the like).  Quarantined ``.corrupt``
        files stay."""
        stem = self._stem(job_id)
        for path in self.directory.glob(glob.escape(stem) + ".*.pkl"):
            if path.stem.rsplit(".", 1)[0] == stem:  # not "<stem>.x.…"
                path.unlink(missing_ok=True)
