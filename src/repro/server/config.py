"""One knob object for the query server.

Kept free of imports from the rest of the server package so
:mod:`repro.config` (the consolidated configuration surface) can expose
it without pulling the server's sockets and threads into import time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .protocol import MAX_FRAME_BYTES, check_port


@dataclass(frozen=True)
class ServerConfig:
    """Everything :class:`~repro.server.S2SServer` needs to stay up.

    * ``host``/``port`` — the listen address, IPv4 or IPv6; an empty host
      takes every interface, port 0 an ephemeral port (``start()``
      returns the bound address); a port outside 0-65535 is refused.
    * ``max_inflight`` — requests executing concurrently across all
      connections; the admission counter's ceiling.
    * ``max_queue`` — requests allowed to *wait* for an execution slot.
      A request arriving with the queue full is refused immediately with
      a RETRY_AFTER frame instead of growing an unbounded backlog.
    * ``retry_after_seconds`` — the pushback hint carried on RETRY_AFTER.
      Quota rejections from a shared sharded query fleet
      (:class:`~repro.errors.FleetQuotaExceeded`) reuse the same frame
      and, unless the fleet supplies its own hint, the same delay —
      fleet backpressure is admission control by another door.
    * ``request_deadline_seconds`` — how long a request may sit queued
      (measured on the injectable clock) before it is answered with a
      DEADLINE_EXCEEDED error instead of executing; ``None`` disables.
    * ``idle_timeout_seconds`` — connections with no frame activity for
      this long (on the clock) are reaped; ``None`` disables.
    * ``drain_timeout_seconds`` — how long a graceful ``stop()`` waits
      for in-flight requests before closing connections anyway.
    * ``max_frame_bytes`` — per-frame size ceiling, both directions.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    max_queue: int = 32
    retry_after_seconds: float = 0.05
    request_deadline_seconds: float | None = 30.0
    idle_timeout_seconds: float | None = 300.0
    drain_timeout_seconds: float = 5.0
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        check_port(self.port)
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got "
                             f"{self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be >= 0")
        if (self.request_deadline_seconds is not None
                and self.request_deadline_seconds <= 0):
            raise ValueError(
                "request_deadline_seconds must be positive or None")
        if (self.idle_timeout_seconds is not None
                and self.idle_timeout_seconds <= 0):
            raise ValueError("idle_timeout_seconds must be positive or None")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
