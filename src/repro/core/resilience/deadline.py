"""Wall-clock deadlines for extraction runs.

A federated query over other organizations' infrastructure must bound
its total latency: one slow source may not hold the answer hostage.  A
:class:`Deadline` is created once per ``extract()`` call and threaded
through both the serial and the parallel path; expired deadlines turn
remaining work into reported problems instead of hangs.
"""

from __future__ import annotations

import math

from ...clock import Clock, SystemClock
from ...errors import DeadlineExceededError


class Deadline:
    """A fixed point on a clock by which an extraction must finish."""

    def __init__(self, seconds: float | None,
                 clock: Clock | None = None) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError("deadline seconds must be >= 0 or None")
        self.clock = clock or SystemClock()
        self.seconds = seconds
        self._expires_at = (None if seconds is None
                            else self.clock.monotonic() + seconds)

    @property
    def unbounded(self) -> bool:
        return self._expires_at is None

    def remaining(self) -> float:
        """Seconds left; ``inf`` when unbounded, never negative."""
        if self._expires_at is None:
            return math.inf
        return max(0.0, self._expires_at - self.clock.monotonic())

    @property
    def expired(self) -> bool:
        return self.remaining() == 0.0

    def check(self, context: str = "extraction") -> None:
        """Raise :class:`DeadlineExceededError` when already expired."""
        if self.expired:
            raise DeadlineExceededError(
                f"{context} exceeded its {self.seconds:.3f}s deadline")

    def clamp(self, seconds: float) -> float:
        """Cap an intended sleep so it never overshoots the deadline."""
        return min(seconds, self.remaining())
