"""Per-source circuit breakers (closed → open → half-open).

A source that keeps failing should stop being called: every doomed
attempt burns retry budget and deadline that healthier sources of the
same federated query could use.  The breaker watches *call outcomes*
(one call = one rule execution after its retry chain) and trips after
``failure_threshold`` consecutive transient failures.  While open, calls
fail fast with :class:`~repro.errors.CircuitOpenError`; after
``cooldown_seconds`` the breaker lets ``half_open_max_calls`` probes
through, closing again on success and re-opening on failure.

Only *transient* failures count toward the threshold — a permanently
broken rule (bad SQL, drifted schema) fails identically every time and
says nothing about source availability.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from ...clock import Clock, SystemClock

#: Breaker states, in lifecycle order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

#: Observer signature: ``listener(source_id, old_state, new_state)``.
TransitionListener = Callable[[str, str, str], None]


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning for one circuit breaker."""

    failure_threshold: int = 5
    cooldown_seconds: float = 30.0
    half_open_max_calls: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.half_open_max_calls < 1:
            raise ValueError("half_open_max_calls must be >= 1")


class CircuitBreaker:
    """One source's availability gate.  Thread-safe.

    ``listener`` observes every state transition (trip, cooldown expiry,
    close) — the metrics registry hooks in here.  Listeners run outside
    the breaker lock and must not raise."""

    def __init__(self, source_id: str, policy: BreakerPolicy | None = None,
                 clock: Clock | None = None,
                 listener: TransitionListener | None = None) -> None:
        self.source_id = source_id
        self.policy = policy or BreakerPolicy()
        self.clock = clock or SystemClock()
        self.listener = listener
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_probes = 0
        self.open_count = 0  # times the breaker tripped, for observability
        self._pending: list[tuple[str, str]] = []  # transitions to report

    def _flush(self) -> None:
        """Report transitions recorded under the lock (lock released)."""
        if self.listener is None:
            return
        with self._lock:
            pending, self._pending = self._pending, []
        for old, new in pending:
            self.listener(self.source_id, old, new)

    @property
    def state(self) -> str:
        """Current state, applying any due open → half-open transition."""
        with self._lock:
            self._tick()
            state = self._state
        self._flush()
        return state

    def allow(self) -> bool:
        """May a call proceed right now?  Open breakers say no."""
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                allowed = True
            elif (self._state == HALF_OPEN and self._half_open_probes
                    < self.policy.half_open_max_calls):
                self._half_open_probes += 1
                allowed = True
            else:
                allowed = False
        self._flush()
        return allowed

    def retry_after(self) -> float:
        """Seconds until the cooldown admits a probe (0 when it already
        does)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            elapsed = self.clock.monotonic() - self._opened_at
            return max(0.0, self.policy.cooldown_seconds - elapsed)

    def record_success(self) -> None:
        """A call completed: close from half-open, reset the streak."""
        with self._lock:
            self._tick()
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._half_open_probes = 0
                self._transition(CLOSED)
        self._flush()

    def record_failure(self) -> None:
        """A call failed transiently: extend the streak, maybe trip."""
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                self._trip()
            else:
                self._consecutive_failures += 1
                if (self._state == CLOSED and self._consecutive_failures
                        >= self.policy.failure_threshold):
                    self._trip()
        self._flush()

    # ------------------------------------------------------------------

    def _transition(self, new_state: str) -> None:
        """Record a state change for the listener (lock held)."""
        if self.listener is not None:
            self._pending.append((self._state, new_state))
        self._state = new_state

    def _trip(self) -> None:
        self._transition(OPEN)
        self._opened_at = self.clock.monotonic()
        self._half_open_probes = 0
        self._consecutive_failures = 0
        self.open_count += 1

    def _tick(self) -> None:
        """Open → half-open once the cooldown has elapsed (lock held)."""
        if (self._state == OPEN and self.clock.monotonic() - self._opened_at
                >= self.policy.cooldown_seconds):
            self._transition(HALF_OPEN)
            self._half_open_probes = 0


class CircuitBreakerRegistry:
    """One breaker per source id, created lazily.  Thread-safe."""

    def __init__(self, policy: BreakerPolicy | None = None,
                 clock: Clock | None = None,
                 listener: TransitionListener | None = None) -> None:
        self.policy = policy or BreakerPolicy()
        self.clock = clock or SystemClock()
        self.listener = listener
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, source_id: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(source_id)
            if breaker is None:
                breaker = CircuitBreaker(source_id, self.policy, self.clock,
                                         self.listener)
                self._breakers[source_id] = breaker
            return breaker

    def open_sources(self) -> list[str]:
        """Sources currently refusing calls, sorted."""
        with self._lock:
            breakers = list(self._breakers.values())
        return sorted(b.source_id for b in breakers if b.state == OPEN)

    def reset(self) -> None:
        """Forget all breaker state (e.g. after re-loading a mapping)."""
        with self._lock:
            self._breakers.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)
