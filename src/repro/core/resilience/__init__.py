"""The resilience layer: retries, breakers, deadlines, failover, health.

B2B integration mediates data living on *other organizations'*
infrastructure, where transient failures, slow responses and outages are
the norm.  This package gives the Extractor Manager the machinery to
degrade gracefully instead of amplifying downstream flakiness:

* :class:`RetryPolicy` / :class:`RetryBudget` — exponential backoff with
  full jitter and a per-extraction retry budget;
* :class:`CircuitBreaker` / :class:`BreakerPolicy` — per-source
  closed → open → half-open gates that fail fast on down sources;
* :class:`Deadline` — a wall-clock budget threaded through serial and
  parallel extraction;
* :class:`SourceHealth` / :class:`SourceHealthRegistry` — the per-source
  ledger surfaced on ``ExtractionOutcome`` and ``QueryResult``;
* ``ResilienceConfig`` / ``ConcurrencyConfig`` — the single knob object
  and its fan-out engine selector, exported by :mod:`repro.config`.

See ``docs/resilience.md`` for the lifecycle diagrams and failover
semantics.
"""

from ...clock import Clock, FakeClock, SystemClock
from .breaker import (CLOSED, HALF_OPEN, OPEN, BreakerPolicy, CircuitBreaker,
                      CircuitBreakerRegistry, TransitionListener)
from .config import DEFAULT_WORKER_CAP, coerce_concurrency
from .deadline import Deadline
from .health import SourceHealth, SourceHealthRegistry
from .retry import RetryBudget, RetryPolicy

__all__ = [
    "BreakerPolicy", "CircuitBreaker", "CircuitBreakerRegistry",
    "CLOSED", "OPEN", "HALF_OPEN",
    "Clock", "FakeClock", "SystemClock",
    "DEFAULT_WORKER_CAP",
    "Deadline", "RetryBudget", "RetryPolicy",
    "SourceHealth", "SourceHealthRegistry",
    "TransitionListener",
    "coerce_concurrency",
]
