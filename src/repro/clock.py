"""Injectable time for the resilience layer and fault injection.

Everything in the middleware that *waits* (retry backoff, circuit-breaker
cooldowns, extraction deadlines, injected source latency, the fleet
schedulers' block on their result queue) reads time through a
:class:`Clock` instead of calling :mod:`time` directly.  Tests
substitute a :class:`FakeClock`, so breaker cooldowns, backoff schedules
and deadline expiry are exercised deterministically with zero real
sleeping — a requirement for keeping the availability experiments (E13)
and the resilience test suite fast and reproducible.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Real seconds a :class:`FakeClock` wait lets worker threads run before
#: it concludes nothing is coming and advances fake time instead.
FAKE_WAIT_GRACE_SECONDS = 0.02


class Clock:
    """Monotonic time, sleeping and waiting on a queue; the seam for
    fake time in tests."""

    def monotonic(self) -> float:
        """Seconds on a monotonic clock (never goes backwards)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (no-op for non-positive values)."""
        raise NotImplementedError

    def wait(self, poll: Callable[[float | None], list],
             timeout: float | None) -> list:
        """Block in ``poll`` until it yields something or ``timeout``
        seconds pass *on this clock*; ``None`` waits for ``poll`` alone.

        ``poll(seconds)`` is a queue read: it blocks up to ``seconds``
        of real time (``None``: indefinitely) and returns an empty list
        when nothing arrived.  This is the one method that knows whether
        time is real, so the fleet schedulers built on it never sleep
        and never branch on the clock's type.  The default is a real
        clock's: the whole timeout is spent inside the queue read."""
        return poll(timeout)


class SystemClock(Clock):
    """The real wall clock: ``time.monotonic`` + ``time.sleep``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """Manually advanced clock; ``sleep`` advances time instantly.

    Thread-safe: the extraction thread pool may sleep and read time
    concurrently.  Sleeping advances the shared ``now`` so a deadline
    computed against this clock still expires in the right order.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Picklable (for subprocess ingest workers); the lock is
        re-created on the other side.  A pickled copy's time diverges
        from the original's — fine for workers, which only *read*."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def wait(self, poll: Callable[[float | None], list],
             timeout: float | None) -> list:
        """A fake clock cannot wait for its own time: give real threads
        :data:`FAKE_WAIT_GRACE_SECONDS`, and if nothing arrives the
        timer is what happens next, so jump to it — silence always costs
        exactly ``timeout`` fake seconds."""
        if timeout is None:
            return poll(None)
        result = poll(FAKE_WAIT_GRACE_SECONDS)
        if not result:
            self.advance(timeout)
        return result

    def advance(self, seconds: float) -> None:
        """Move time forward (negative deltas are ignored)."""
        if seconds <= 0:
            return
        with self._lock:
            self._now += seconds
