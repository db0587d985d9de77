"""Freshness policy and the background store refresher.

A :class:`RefreshPolicy` decides when materialized instances are too old
to serve (TTL/staleness).

:class:`StoreRefresher` runs refreshes in the background, reusing the
worker pattern of :class:`~repro.core.query.scheduler.QueryScheduler`
(one condition variable, daemon threads, explicit ``close()``).  Time is
read through the injectable :class:`~repro.clock.Clock`, so tests drive
the refresher deterministically with a :class:`~repro.clock.FakeClock`
and the synchronous :meth:`StoreRefresher.tick` seam instead of real
sleeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from ...clock import Clock, SystemClock
from ...errors import S2SError


@dataclass(frozen=True)
class RefreshPolicy:
    """When is a materialization stale.

    ``ttl_seconds=None`` means materializations never expire by age
    (refresh happens only on demand or through the background
    refresher).  How serving degrades is not a choice: a past-TTL
    materialization with slices still answers while a refresh of it is
    in flight, and a source whose extraction fails completely keeps its
    stored slice, marked stale (:meth:`SemanticStore.commit`)."""

    ttl_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.ttl_seconds is not None and self.ttl_seconds < 0:
            raise ValueError("ttl_seconds must be >= 0 or None")

    def is_stale(self, age_seconds: float) -> bool:
        """Whether a materialization of this age is past its TTL."""
        if self.ttl_seconds is None:
            return False
        return age_seconds >= self.ttl_seconds


class StoreRefresher:
    """Periodic background refresh driver.

    ``refresh`` is the zero-argument callable that performs one refresh
    cycle (normally ``middleware.refresh_store``); ``interval_seconds``
    is measured on the injectable ``clock``.  A daemon worker thread
    wakes on a condition variable and runs a cycle whenever the clock
    says one is due; :meth:`tick` runs one cycle synchronously on the
    caller's thread — the deterministic seam tests use with a
    :class:`~repro.clock.FakeClock`, where the worker's real-time waits
    never fire.

    Usable as a context manager so the worker is shut down on exit::

        with StoreRefresher(s2s.refresh_store, interval_seconds=300):
            ...serve queries...
    """

    def __init__(self, refresh: Callable[[], list],
                 *, interval_seconds: float = 60.0,
                 clock: Clock | None = None) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.refresh = refresh
        self.interval_seconds = interval_seconds
        self.clock = clock or SystemClock()
        self._cond = threading.Condition()
        self._closed = False
        self.cycles = 0
        self.last_results: list = []
        self.last_error: str | None = None
        self._last_run = self.clock.monotonic()
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="store-refresher")
        self._worker.start()

    def tick(self) -> list:
        """Run one refresh cycle now, on the calling thread.

        Failures are recorded in ``last_error`` instead of raising — a
        background refresh must never take the serving path down."""
        try:
            results = self.refresh()
            self.last_error = None
        except S2SError as exc:
            self.last_error = str(exc)
            return []
        self.cycles += 1
        self.last_results = results
        return results

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                self._cond.wait(self.interval_seconds)
                if self._closed:
                    return
            now = self.clock.monotonic()
            if now - self._last_run >= self.interval_seconds:
                self._last_run = now
                self.tick()

    def close(self, *, wait: bool = True) -> None:
        """Stop the background worker. Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if wait:
            self._worker.join()

    def __enter__(self) -> "StoreRefresher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
