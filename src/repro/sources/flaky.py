"""Fault injection for data sources.

B2B sources live on other organizations' infrastructure; transient
failures (timeouts, connection resets, maintenance windows) are routine.
:class:`FlakySource` wraps any connector and injects faults
deterministically so the resilience layer — retries, circuit breakers,
deadlines, replica failover — is exercisable without real networks or
real sleeps:

* **random transient failures** — a seeded fraction of rule executions
  raises (default) :class:`~repro.errors.TransientSourceError`, the
  error class the Extractor Manager's retry policy reacts to;
* **scripted failures** — an explicit fail/succeed plan consumed before
  the random stream, for exact breaker-transition tests;
* **latency injection** — every call sleeps on an injectable clock
  (pair with :class:`~repro.clock.FakeClock` for instant fake latency),
  driving deadline-expiry tests;
* **scheduled outage windows** — ``[start, end)`` intervals on the
  clock during which every call fails, modelling maintenance windows
  and hard-down sources;
* **configurable error classes** — inject permanent errors too, to
  check that they are *not* retried and do *not* trip breakers.

All mutable state is guarded by one lock: under the thread-pool engine
the Extractor Manager calls ``execute_rule`` from a thread pool, and an
unguarded shared ``random.Random`` would break the documented
determinism.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..clock import Clock, SystemClock
from ..errors import PoisonPayloadError, TransientSourceError
from .base import ConnectionInfo, DataSource


@dataclass(frozen=True)
class OutageWindow:
    """A ``[start, end)`` interval (clock seconds since wrapping) during
    which every call fails."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError("outage window needs 0 <= start <= end")

    def covers(self, offset: float) -> bool:
        return self.start <= offset < self.end


class WorkerCrashed(BaseException):
    """Simulated sudden worker death (thread workers).

    Derives from :class:`BaseException` so no ``except Exception``
    handler between the fault site and the worker loop can absorb it —
    the thread dies without reporting, exactly like a killed process.
    """


@dataclass(frozen=True)
class WorkerFault:
    """One scripted ingest-worker fault.

    ``action`` is ``"kill"`` (sudden death mid-stage: thread workers
    raise :class:`WorkerCrashed`, subprocess workers ``os._exit``),
    ``"hang"`` (block until the supervisor cancels the worker) or
    ``"poison"`` (raise :class:`~repro.errors.PoisonPayloadError`, the
    non-retryable path into the dead-letter ledger).  ``source_id`` and
    ``stage`` narrow where the fault fires; ``None`` matches anything.
    """

    action: str
    source_id: str | None = None
    stage: str | None = None

    def __post_init__(self) -> None:
        if self.action not in ("kill", "hang", "poison"):
            raise ValueError("action must be 'kill', 'hang' or 'poison'")

    def matches(self, source_id: str, stage: str) -> bool:
        return ((self.source_id is None or self.source_id == source_id)
                and (self.stage is None or self.stage == stage))


class KillableWorker:
    """Scripted fault injection at ingest stage boundaries.

    The ingest workers call :meth:`check` before running each stage of
    each job — ``"EXTRACT"``, then ``"GENERATE"``; a job resumed from
    its EXTRACT checkpoint checks ``"GENERATE"`` only.  The first
    scheduled :class:`WorkerFault` matching that ``(source_id, stage)``
    is consumed and acted on.  Faults are consumed at most once, so
    "kill the worker the first time it GENERATEs source X" is one
    fault, and the restarted worker sails through the re-run — the
    deterministic chaos-test shape.

    Picklable for the subprocess worker boundary (the lock is dropped
    and re-created); note that a subprocess child gets a *copy* of the
    fault plan at spawn time, so consumption in a child is per-child.
    """

    def __init__(self, faults: Iterable[WorkerFault] = ()) -> None:
        self.faults = list(faults)
        self.fired: list[WorkerFault] = []
        self._lock = threading.Lock()

    def schedule(self, fault: WorkerFault) -> None:
        with self._lock:
            self.faults.append(fault)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _consume(self, source_id: str, stage: str) -> WorkerFault | None:
        with self._lock:
            for index, fault in enumerate(self.faults):
                if fault.matches(source_id, stage):
                    del self.faults[index]
                    self.fired.append(fault)
                    return fault
        return None

    def check(self, source_id: str, stage: str, *,
              cancel: "threading.Event | None" = None,
              in_subprocess: bool = False) -> None:
        """Fire the first matching fault, if any.

        ``cancel`` is the worker's cancellation event — a hang blocks on
        it (with a real-time safety valve) so a supervised hang is
        interruptible.  ``in_subprocess`` selects ``os._exit`` as the
        kill mechanism (a raise would be caught by the child's loop and
        reported, which a real SIGKILL would not be)."""
        fault = self._consume(source_id, stage)
        if fault is None:
            return
        if fault.action == "poison":
            raise PoisonPayloadError(
                f"scripted poison payload at stage {stage}",
                source_id=source_id)
        if fault.action == "kill":
            if in_subprocess:
                os._exit(17)
            raise WorkerCrashed(
                f"scripted worker death at stage {stage} of {source_id!r}")
        # hang: stay silent until the supervisor gives up on us.
        if cancel is not None:
            cancel.wait(timeout=30.0)
        else:
            import time
            time.sleep(30.0)
        raise WorkerCrashed(
            f"scripted hang at stage {stage} of {source_id!r} released")


class FlakySource(DataSource):
    """Decorator source: forwards to ``inner``, injecting faults."""

    def __init__(self, inner: DataSource, *, failure_rate: float = 0.3,
                 seed: int = 7, latency: float = 0.0,
                 outages: Iterable[OutageWindow | tuple[float, float]] = (),
                 error_factory: Callable[[str], Exception] | None = None,
                 failure_plan: Sequence[bool] | None = None,
                 clock: Clock | None = None) -> None:
        super().__init__(inner.source_id)
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.inner = inner
        self.failure_rate = failure_rate
        self.latency = latency
        self.error_factory = error_factory or TransientSourceError
        self.clock = clock or SystemClock()
        self.outages = [window if isinstance(window, OutageWindow)
                        else OutageWindow(*window) for window in outages]
        self._plan = list(failure_plan) if failure_plan is not None else []
        self._plan_index = 0
        self._rng = random.Random(seed)
        self._epoch = self.clock.monotonic()
        self._lock = threading.Lock()
        self.attempts = 0
        self.failures = 0

    def __getstate__(self) -> dict:
        """Picklable across the subprocess worker boundary: the lock is
        dropped here and re-created on the other side.  Fault *state*
        (plan position, RNG stream, counters) travels with the copy."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def source_type(self) -> str:  # type: ignore[override]
        """Forwarded from the wrapped source."""
        return self.inner.source_type

    def connect(self) -> None:
        """Connect the wrapped source."""
        self.inner.connect()
        super().connect()

    def close(self) -> None:
        """Close the wrapped source."""
        self.inner.close()
        super().close()

    # -- fault scheduling ---------------------------------------------------

    def schedule_outage(self, start: float, duration: float) -> OutageWindow:
        """Add an outage window ``start`` seconds from *now* (clock time)."""
        offset = self.clock.monotonic() - self._epoch
        window = OutageWindow(offset + start, offset + start + duration)
        with self._lock:
            self.outages.append(window)
        return window

    def elapsed(self) -> float:
        """Clock seconds since this wrapper was created."""
        return self.clock.monotonic() - self._epoch

    def _should_fail(self, offset: float) -> str | None:
        """Decide (under the lock) whether this call fails, and why."""
        for window in self.outages:
            if window.covers(offset):
                return (f"scheduled outage [{window.start:g}s, "
                        f"{window.end:g}s) on {self.source_id!r}")
        if self._plan_index < len(self._plan):
            scripted = self._plan[self._plan_index]
            self._plan_index += 1
            if scripted:
                return (f"scripted failure #{self._plan_index} on "
                        f"{self.source_id!r}")
            return None
        if self._rng.random() < self.failure_rate:
            return (f"transient failure talking to {self.source_id!r} "
                    f"(attempt {self.attempts})")
        return None

    # -- the wrapped call ---------------------------------------------------

    def execute_rule(self, rule: str) -> list[str]:
        """Forward to the wrapped source, injecting configured faults:
        the attempt is counted and the failure decided under the lock."""
        if self.latency > 0:
            self.clock.sleep(self.latency)
        with self._lock:
            self.attempts += 1
            reason = self._should_fail(self.elapsed())
            if reason is not None:
                self.failures += 1
        if reason is not None:
            raise self.error_factory(reason)
        return self.inner.execute_rule(rule)

    def content_fingerprint(self) -> str | None:
        """Forwarded from the wrapped source.

        Deliberately not fault-injected: a fingerprint probe models a
        cheap metadata check, and change detection failing open (None →
        treated as changed) is already the safe default."""
        return self.inner.content_fingerprint()

    def connection_info(self) -> ConnectionInfo:
        """Forwarded from the wrapped source."""
        return self.inner.connection_info()
