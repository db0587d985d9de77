"""Per-query tracing: nested spans over the extraction pipeline.

A :class:`Trace` is the executable analogue of the paper's Figure 5 —
one span per pipeline stage (parse, plan, per-source extract, per-entry
rule evaluation, retry attempts, breaker decisions, store lookups,
instance generation, condition filtering), nested to mirror the call
structure and timed on the injectable :class:`~repro.clock.Clock`.
Pairing the tracer with a :class:`~repro.clock.FakeClock` makes traces
fully deterministic: span durations reflect exactly the fake sleeps the
resilience layer performed, with zero real waiting.

Tracing is strictly opt-in.  When no tracer is installed the pipeline
carries :data:`NULL_SPAN`, a no-op sink whose methods do nothing and
return itself, so the hot path pays a couple of method calls and no
allocations per stage.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from ..clock import Clock, SystemClock


class Span:
    """One timed pipeline stage, with attributes and child spans.

    Thread-safe where it must be: parallel extraction appends per-source
    children from worker threads, so mutation of ``children`` and
    ``attributes`` is guarded by a lock shared with the parent trace.
    """

    __slots__ = ("name", "attributes", "children", "started_at", "ended_at",
                 "status", "_clock", "_lock")

    def __init__(self, name: str, clock: Clock, lock: threading.Lock,
                 **attributes: Any) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes)
        self.children: list[Span] = []
        self._clock = clock
        self._lock = lock
        self.started_at = clock.monotonic()
        self.ended_at: float | None = None
        self.status = "ok"

    # -- lifecycle ---------------------------------------------------------

    def child(self, name: str, **attributes: Any) -> "Span":
        """Open a nested span (started now, on the same clock)."""
        span = Span(name, self._clock, self._lock, **attributes)
        with self._lock:
            self.children.append(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the span (e.g. outcome counts)."""
        with self._lock:
            self.attributes.update(attributes)

    def fail(self, error: str) -> None:
        """Mark the span failed, recording the error message."""
        with self._lock:
            self.status = "error"
            self.attributes["error"] = error

    def finish(self) -> None:
        """Stamp the end time (idempotent: first call wins)."""
        with self._lock:
            if self.ended_at is None:
                self.ended_at = self._clock.monotonic()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None and self.status == "ok":
            self.fail(str(exc))
        self.finish()

    # -- inspection --------------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        """Span duration; still-open spans measure up to now."""
        end = self.ended_at
        if end is None:
            end = self._clock.monotonic()
        return max(0.0, end - self.started_at)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant span (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant span (or self) with ``name``, depth-first."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of the span subtree."""
        return {
            "name": self.name,
            "start": self.started_at,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in list(self.children)],
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f}ms, "
                f"children={len(self.children)})")


class NullSpan:
    """The no-op span carried when tracing is off.

    Every method is a do-nothing stub returning something sensible
    (``child`` returns the singleton itself), so instrumentation points
    never branch on "is tracing enabled".
    """

    __slots__ = ()

    name = "null"
    status = "ok"
    children: list = []
    attributes: dict = {}

    def child(self, name: str, **attributes: Any) -> "NullSpan":
        return self

    def annotate(self, **attributes: Any) -> None:
        pass

    def fail(self, error: str) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    @property
    def duration_seconds(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Shared no-op span: the default value of every ``span`` parameter.
NULL_SPAN = NullSpan()


class Trace:
    """The span tree of one query, rooted at the ``query`` span."""

    def __init__(self, root: Span) -> None:
        self.root = root

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def walk(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, name: str) -> Span | None:
        return self.root.find(name)

    def find_all(self, name: str) -> list[Span]:
        return self.root.find_all(name)

    def stage_seconds(self) -> dict[str, float]:
        """Total duration per span name across the whole tree."""
        totals: dict[str, float] = {}
        for span in self.walk():
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.duration_seconds)
        return totals

    def render(self) -> str:
        """The indented text form (see :mod:`repro.obs.export`)."""
        from .export import render_trace
        return render_trace(self)

    def to_dict(self) -> dict[str, Any]:
        return self.root.to_dict()

    def __repr__(self) -> str:
        return (f"Trace({self.root.name!r}, "
                f"{self.duration_seconds * 1e3:.3f}ms, "
                f"spans={sum(1 for _ in self.walk())})")


class Tracer:
    """Produces one :class:`Trace` per traced query.

    The tracer is deliberately tiny: it owns the clock and remembers the
    traces it produced (``keep_last`` bounds the memory).  Install one on
    :class:`~repro.core.middleware.S2SMiddleware` (``tracer=Tracer()``)
    and every ``query()`` carries its trace on ``QueryResult.trace``.
    """

    def __init__(self, clock: Clock | None = None, *,
                 keep_last: int = 16) -> None:
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        self.clock = clock or SystemClock()
        self.keep_last = keep_last
        self._traces: list[Trace] = []
        self._lock = threading.Lock()

    def start(self, name: str, **attributes: Any) -> Span:
        """Open a root span; pair with ``finish()``/``with``."""
        return Span(name, self.clock, threading.Lock(), **attributes)

    def trace_of(self, root: Span) -> Trace:
        """Wrap a finished root span, remembering the trace."""
        trace = Trace(root)
        with self._lock:
            self._traces.append(trace)
            if len(self._traces) > self.keep_last:
                del self._traces[:len(self._traces) - self.keep_last]
        return trace

    @property
    def traces(self) -> list[Trace]:
        """The most recent traces, oldest first."""
        with self._lock:
            return list(self._traces)

    @property
    def last(self) -> Trace | None:
        """The most recent trace, or None before the first query."""
        with self._lock:
            return self._traces[-1] if self._traces else None
