"""Per-source fragment caching with coherence and single-flight dedup.

B2B sources change slowly (the paper: "data sources do not normally
change their structures"), so repeated queries over the same mapping can
reuse extracted fragments.  The cache key is the full extraction identity
— (source, attribute, rule code, transform) — so editing a rule naturally
misses; *data* changes inside a source are invisible to the middleware,
which is why invalidation is explicit (`invalidate(source_id)`) and the
cache is opt-in.

Two coherence mechanisms support concurrent, batched query traffic:

* **Single-flight dedup** — when several threads miss on the same key at
  once, exactly one (the *leader*) performs the extraction; the others
  wait on the in-flight marker and are served the leader's result.  A
  failed flight does not poison the waiters: they wake, find the cache
  still empty, and the next one becomes leader and extracts itself.

* **Generation tags** — ``bump_generation()`` (called on every mapping
  reload) clears the cache *and* advances a generation counter.  Writers
  stamp :meth:`put` with the generation they observed when their scan
  started, so an extraction that began against the old mapping cannot
  write a stale fragment back after the reload — the put is discarded.

This is the lazy-vs-cached ablation of experiment E1 and the coherence
substrate of the batched executor (E14).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..mapping.attributes import MappingEntry
from .records import RawFragment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import MetricsRegistry


def _key(entry: MappingEntry) -> tuple[str, str, str, str | None]:
    return (entry.source_id, entry.attribute_id, entry.rule.code,
            entry.rule.transform)


class _Flight:
    """In-flight marker for one cache key being extracted by a leader."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    flights: int = 0          # single-flight leaderships (extractions run)
    waits: int = 0            # lookups that blocked behind a flight
    dedup_hits: int = 0       # waiters served by a leader's result
    stale_discards: int = 0   # puts dropped by a generation bump

    @property
    def dedup_ratio(self) -> float:
        """Fraction of would-be extractions collapsed into a leader's
        flight: dedup_hits / (flights + dedup_hits), or 0.0."""
        total = self.flights + self.dedup_hits
        return self.dedup_hits / total if total else 0.0


class FragmentCache:
    """Thread-safe cache of extracted fragments keyed by mapping entry.

    ``metrics`` optionally names a :class:`~repro.obs.MetricsRegistry`;
    when set, every lookup/invalidation also feeds the process-wide
    ``cache_hits_total`` / ``cache_misses_total`` /
    ``cache_invalidations_total`` counters (labelled by source), and the
    single-flight protocol feeds ``cache_single_flight_total`` (labelled
    by role: leader / wait / dedup-hit) plus
    ``cache_stale_discards_total``."""

    def __init__(self, *, max_entries: int = 10_000,
                 metrics: "MetricsRegistry | None" = None) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._entries: dict[tuple, list[str]] = {}
        self._flights: dict[tuple, _Flight] = {}
        self._generation = 0
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.metrics = metrics

    # -- generations --------------------------------------------------------

    @property
    def generation(self) -> int:
        """The current mapping generation; captured at scan start and
        passed back through :meth:`put` so stale write-backs die."""
        with self._lock:
            return self._generation

    def bump_generation(self) -> int:
        """Advance the generation and drop every cached fragment.

        Called when the mapping is reloaded: fragments extracted under
        the old mapping are invalid, and any extraction *still running*
        against it will have its :meth:`put` discarded because it carries
        the old generation.  Returns the new generation."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += removed
            self._generation += 1
            generation = self._generation
        if self.metrics is not None and removed:
            self.metrics.counter(
                "cache_invalidations_total",
                "fragment cache entries dropped").inc(removed, source="*")
        return generation

    # -- lookups ------------------------------------------------------------

    def get(self, entry: MappingEntry) -> RawFragment | None:
        """Cached fragment for the entry, or None (counts a miss)."""
        with self._lock:
            values = self._entries.get(_key(entry))
            if values is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                values = list(values)
        if self.metrics is not None:
            name = ("cache_hits_total" if values is not None
                    else "cache_misses_total")
            self.metrics.counter(
                name, "fragment cache lookups").inc(
                    source=entry.source_id)
        if values is None:
            return None
        return RawFragment(entry.attribute, entry.source_id, values)

    def acquire(self, entry: MappingEntry) -> tuple[RawFragment | None, bool]:
        """Single-flight lookup: ``(fragment, False)`` on a hit, or
        ``(None, True)`` when the caller is elected leader and must
        extract then :meth:`put` + :meth:`release`.

        When another thread already has the key in flight, blocks until
        that flight completes, then re-evaluates: a successful leader
        turns the wait into a dedup hit; a failed leader leaves the cache
        empty and this caller is elected leader itself (a failed flight
        never poisons its waiters)."""
        key = _key(entry)
        waited = False
        while True:
            flight = None
            with self._lock:
                values = self._entries.get(key)
                if values is not None:
                    self.stats.hits += 1
                    if waited:
                        self.stats.dedup_hits += 1
                    values = list(values)
                else:
                    flight = self._flights.get(key)
                    if flight is None:
                        self._flights[key] = _Flight()
                        self.stats.misses += 1
                        self.stats.flights += 1
                    else:
                        self.stats.waits += 1
            if self.metrics is not None:
                single_flight = self.metrics.counter(
                    "cache_single_flight_total",
                    "single-flight protocol events")
                if values is not None:
                    self.metrics.counter(
                        "cache_hits_total", "fragment cache lookups").inc(
                            source=entry.source_id)
                    if waited:
                        single_flight.inc(role="dedup-hit")
                elif flight is None:
                    self.metrics.counter(
                        "cache_misses_total", "fragment cache lookups").inc(
                            source=entry.source_id)
                    single_flight.inc(role="leader")
                else:
                    single_flight.inc(role="wait")
            if values is not None:
                return (RawFragment(entry.attribute, entry.source_id,
                                    values), False)
            if flight is None:  # elected leader
                return None, True
            flight.event.wait()
            waited = True

    def release(self, entry: MappingEntry) -> None:
        """End the caller's flight for ``entry``, waking every waiter.

        Must run (success *or* failure) after :meth:`acquire` elected the
        caller leader; :meth:`put` first on success so waiters observe
        the result.  Idempotent."""
        with self._lock:
            flight = self._flights.pop(_key(entry), None)
        if flight is not None:
            flight.event.set()

    # -- writes -------------------------------------------------------------

    def put(self, entry: MappingEntry, fragment: RawFragment, *,
            generation: int | None = None) -> bool:
        """Cache a fragment; resets wholesale when capacity is hit.

        ``generation`` is the value of :attr:`generation` the writer
        observed when its scan started; when the mapping was reloaded in
        the meantime the write is silently discarded (returns False) so a
        pre-reload extraction cannot resurrect stale data."""
        with self._lock:
            if (generation is not None
                    and generation != self._generation):
                self.stats.stale_discards += 1
                stale = True
            else:
                stale = False
                if len(self._entries) >= self.max_entries:
                    # Simple wholesale reset: bounded memory matters more
                    # than eviction precision for this workload.
                    self._entries.clear()
                self._entries[_key(entry)] = list(fragment.values)
        if stale and self.metrics is not None:
            self.metrics.counter(
                "cache_stale_discards_total",
                "stale write-backs dropped by a generation bump").inc(
                    source=entry.source_id)
        return not stale

    def invalidate(self, source_id: str | None = None) -> int:
        """Drop cached fragments for one source, or everything."""
        with self._lock:
            if source_id is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                victims = [key for key in self._entries
                           if key[0] == source_id]
                for key in victims:
                    del self._entries[key]
                removed = len(victims)
            self.stats.invalidations += removed
        if self.metrics is not None and removed:
            self.metrics.counter(
                "cache_invalidations_total",
                "fragment cache entries dropped").inc(
                    removed, source=source_id or "*")
        return removed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
