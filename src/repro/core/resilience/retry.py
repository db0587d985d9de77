"""Retry policy: exponential backoff, full jitter, per-extraction budget.

Replaces the seed's fixed-count/constant-sleep retry pair.  The schedule
follows the "full jitter" recipe (delay drawn uniformly from
``[0, min(max_delay, base * multiplier^n)]``) so that many clients
retrying against the same recovering B2B source do not synchronize into
retry storms.  A shared :class:`RetryBudget` caps the *total* number of
re-attempts one extraction run may spend across all of its sources, so a
single flapping source cannot starve the rest of a federated query.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

_JITTER_MODES = ("full", "none")


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are re-attempted.

    ``max_attempts`` counts *total* tries per (source, entry) call:
    ``1`` means no retrying at all.  ``budget`` bounds retries across a
    whole extraction run (``None`` = unbounded).  ``seed`` fixes the
    jitter stream for reproducible schedules in tests and benchmarks.
    """

    max_attempts: int = 1
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: str = "full"
    budget: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.jitter not in _JITTER_MODES:
            raise ValueError(f"jitter must be one of {_JITTER_MODES}")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 or None")

    @classmethod
    def from_legacy(cls, retries: int, retry_delay: float) -> "RetryPolicy":
        """The seed's ``retries``/``retry_delay`` pair, verbatim.

        Constant delay, no jitter, no budget — byte-for-byte the old
        behaviour, which ``ResilienceConfig.conservative()`` builds on.
        """
        if retries < 0:
            raise ValueError("retries must be >= 0")
        return cls(max_attempts=retries + 1, base_delay=retry_delay,
                   multiplier=1.0, max_delay=max(retry_delay, 0.0),
                   jitter="none")

    @property
    def retries(self) -> int:
        """Retry count in the seed's vocabulary (attempts minus one)."""
        return self.max_attempts - 1

    def backoff_ceiling(self, attempt: int) -> float:
        """The un-jittered delay before re-attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay, self.base_delay
                   * self.multiplier ** (attempt - 1))

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay before re-attempt ``attempt`` (1-based)."""
        ceiling = self.backoff_ceiling(attempt)
        if self.jitter == "none" or ceiling <= 0:
            return ceiling
        return rng.uniform(0.0, ceiling)

    def make_rng(self) -> random.Random:
        """A jitter stream (seeded when the policy carries a seed)."""
        return random.Random(self.seed)


class RetryBudget:
    """Thread-safe countdown of re-attempts for one extraction run."""

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("budget limit must be >= 0 or None")
        self._remaining = limit
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int | None:
        """Retries left, or ``None`` for an unbounded budget."""
        with self._lock:
            return self._remaining

    @property
    def exhausted(self) -> bool:
        with self._lock:
            return self._remaining == 0

    def try_consume(self) -> bool:
        """Take one retry from the budget; False when none remain."""
        with self._lock:
            if self._remaining is None:
                return True
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True
