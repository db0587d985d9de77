"""The materialized semantic store — the serving layer over the pipeline.

The paper's end product is "semantic knowledge": OWL instances compiled
by the Instance Generator.  The :class:`SemanticStore` materializes those
instances ahead of query time, so repeat queries are answered from the
store instead of re-extracting every source (the standard move in
ontology-based integration systems; see docs/store.md).

Design points:

* **Unmerged, per-source storage.**  A materialization keeps one
  :class:`SourceSlice` per data source holding that source's assembled
  entities *before* any ``merge_key`` deduplication.  Per-source
  generation is deterministic and independent, so concatenating the
  slices in sorted-source order and applying the Instance Generator's
  merge at serve time reproduces a live query's answer exactly — for
  any merge key, not just the one used when the store was filled.

* **Shared, read-only entities.**  A :class:`SourceSlice` freezes its
  entities when it is made (:meth:`AssembledEntity.freeze`), and from
  then on the store, every reader and every RDF snapshot share them:
  ``serve`` hands out the stored entities themselves, and an edit
  raises instead of reaching the store (docs/store.md, "What is shared,
  and why it cannot change").

* **One writer, keeping entities.**  Live write-through (``fold``),
  the delta refresher and the ingest coordinator all fill the store
  through :meth:`SemanticStore.commit`, which owns the per-source
  verdict and the error channel.  Every slice swap, whoever asks for
  it, happens in ``_put_slice`` — the only code that touches
  ``mat.slices``.  A swap is all a write costs: the store keeps
  entities, not triples.

* **A queryable RDF view.**  ``store.graph`` is a read-only snapshot of
  the stored slices' triples and provenance (:mod:`.view`), which
  ``S2SMiddleware.sparql`` and :meth:`SemanticStore.export` read
  outside the store lock.

* **Generation coherence.**  ``bump_generation()``: a mapping reload
  drops every materialization, so a stale post-reload store is never
  served.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

from ...clock import Clock, SystemClock
from ...errors import S2SError
from ...ids import AttributePath
from ...obs import NULL_SPAN, MetricsRegistry
from ...rdf.graph import Graph
from ...rdf.namespace import Namespace
from ...rdf.ntriples import serialize_ntriples
from ...rdf.turtle import serialize_turtle
from ..instances.assembly import AssembledEntity
from ..instances.errors import ErrorEntry, ErrorReport
from .refresh import RefreshPolicy
from .view import STORE, SliceIndex, StoreGraph, entity_triples

#: Default namespace entity triples are minted in (the demo ontology's).
DEFAULT_ENTITY_NAMESPACE = "http://example.org/s2s/ontology#"

#: A materialization's identity: (query class, required attribute ids).
StoreKey = tuple[str, frozenset[str]]


@dataclass
class SourceSlice:
    """One source's stored (unmerged) entities for one materialization.

    The entities are frozen here, where sharing begins: both ways into
    the store (``commit`` and the warm load's ``adopt``) make a slice.
    ``fingerprint`` is the source's content hash at extraction time
    (None = unfingerprintable, treated as changed on refresh); ``stale``
    marks last-known-good data kept after the source started failing."""

    source_id: str
    entities: Sequence[AssembledEntity] = ()
    fingerprint: str | None = None
    stale: bool = False
    _index: SliceIndex | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        self.entities = tuple([entity.freeze() for entity in self.entities])

    def index(self, namespace: Namespace, class_name: str) -> SliceIndex:
        """The slice's triples, indexed on first use and kept: a stored
        slice's entities are frozen (a write swaps whole slices), so the
        index is valid for as long as the slice lives.  Two readers
        racing to build it build equal ones."""
        if self._index is None:
            self._index = SliceIndex(
                entity_triples(namespace, class_name, self.entities))
        return self._index


@dataclass
class Materialization:
    """Everything stored for one (query class, attribute set)."""

    class_name: str
    attribute_ids: frozenset[str]
    required: list[AttributePath]
    slices: dict[str, SourceSlice] = field(default_factory=dict)
    errors: list[ErrorEntry] = field(default_factory=list)
    materialized_at: float = 0.0
    generation: int = 0
    expired: bool = False

    @property
    def key(self) -> StoreKey:
        return (self.class_name, self.attribute_ids)

    def entity_count(self) -> int:
        """Total stored entities across all slices."""
        return sum(len(slice_.entities) for slice_ in self.slices.values())

    def stale_sources(self) -> list[str]:
        """Sources currently serving last-known-good data, sorted."""
        return sorted(source_id for source_id, slice_ in self.slices.items()
                      if slice_.stale)


@dataclass
class StoreServing:
    """What :meth:`SemanticStore.serve` hands out: the stored entities."""

    entities: list[AssembledEntity]
    errors: ErrorReport
    stale: bool = False


#: The per-source verdicts of :meth:`SemanticStore.commit` (also the
#: names of the :class:`~repro.core.store.delta.RefreshResult` lists).
REFRESHED, KEPT_STALE, REMOVED = "refreshed", "kept_stale", "removed"


@dataclass
class SliceWrite:
    """What one extraction produced for one source, ready to commit.

    ``fingerprint`` is the source's content hash taken *before* the
    read: a write racing the extraction then leaves a fingerprint older
    than the data, and the next refresh re-extracts — taken after, the
    old rows would be stored under the new hash and served as fresh
    forever.  ``failed`` says the extraction reported a problem for the
    source; whatever entities came back anyway are a partial answer."""

    source_id: str
    entities: list[AssembledEntity] = field(default_factory=list)
    fingerprint: str | None = None
    failed: bool = False


def slice_writes(source_ids, generation, outcome,
                 fingerprints: dict[str, str | None]) -> list[SliceWrite]:
    """One :class:`SliceWrite` per attempted source of one extraction
    outcome and the (unmerged) generation built from it."""
    by_source: dict[str, list[AssembledEntity]] = {}
    for entity in generation.entities:
        by_source.setdefault(entity.source_id, []).append(entity)
    failed = {problem.source_id for problem in outcome.problems}
    return [SliceWrite(source_id, by_source.get(source_id, []),
                       fingerprints.get(source_id), source_id in failed)
            for source_id in source_ids]


#: the formats :meth:`SemanticStore.export` writes
_EXPORTERS = {"turtle": serialize_turtle, "ntriples": serialize_ntriples}


class SemanticStore:
    """Materialized, incrementally-refreshed instance store.

    Thread-safe: the query scheduler's workers may serve, fold and
    refresh concurrently."""

    def __init__(self, *, policy: RefreshPolicy | None = None,
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None,
                 namespace: str = DEFAULT_ENTITY_NAMESPACE) -> None:
        self.policy = policy or RefreshPolicy()
        self.clock = clock or SystemClock()
        self.metrics = metrics
        self.namespace = Namespace(namespace)
        self.generation = 0
        self._materializations: dict[StoreKey, Materialization] = {}
        self._refreshing: set[StoreKey] = set()
        self._lock = threading.RLock()

    # -- identity ------------------------------------------------------

    @staticmethod
    def key_for(plan) -> StoreKey:
        """The store key of one query plan: (class, attribute-id set).

        Keying on the *attribute set* (not just the class) keeps two
        queries with different required attributes — e.g. one whose
        condition pulls in an attribute outside the class closure —
        from serving each other's materializations."""
        return (plan.class_name,
                frozenset(str(path) for path in plan.required_attributes))

    def lookup(self, plan) -> Materialization | None:
        """The materialization answering ``plan``, fresh or not."""
        with self._lock:
            return self._materializations.get(self.key_for(plan))

    def materialization(self, key: StoreKey) -> Materialization | None:
        """The materialization stored under ``key``, or None."""
        with self._lock:
            return self._materializations.get(key)

    def ensure(self, class_name: str,
               required: list[AttributePath]) -> Materialization:
        """Get-or-create the materialization for one attribute set.

        A newly created materialization starts *expired*: the ingest
        pipeline fills it slice by slice, and a half-ingested answer
        must not be served as fresh — :meth:`touch` lifts the expiry
        once a run completes."""
        key: StoreKey = (class_name,
                         frozenset(str(path) for path in required))
        with self._lock:
            mat = self._materializations.get(key)
            if mat is None:
                mat = Materialization(
                    class_name, key[1], list(required),
                    materialized_at=self.clock.monotonic(),
                    generation=self.generation, expired=True)
                self._materializations[key] = mat
            return mat

    def materializations(self) -> list[Materialization]:
        """All current materializations (stable order by key)."""
        with self._lock:
            return [self._materializations[key]
                    for key in sorted(self._materializations,
                                      key=lambda k: (k[0], sorted(k[1])))]

    def __len__(self) -> int:
        with self._lock:
            return len(self._materializations)

    # -- refresh bookkeeping -------------------------------------------

    def begin_refresh(self, key: StoreKey) -> None:
        """Mark a refresh in flight (stale serving may continue)."""
        with self._lock:
            self._refreshing.add(key)

    def end_refresh(self, key: StoreKey) -> None:
        """Clear the in-flight mark."""
        with self._lock:
            self._refreshing.discard(key)

    def refreshing(self, key: StoreKey) -> bool:
        """Whether a refresh of ``key`` is currently in flight."""
        with self._lock:
            return key in self._refreshing

    # -- serving -------------------------------------------------------

    def _stale(self, mat: Materialization) -> bool:
        age = self.clock.monotonic() - mat.materialized_at
        return mat.expired or self.policy.is_stale(age)

    def serve(self, plan, *, span=NULL_SPAN) -> StoreServing | None:
        """Answer ``plan`` from the store, or None to fall through live.

        A fresh materialization is always served.  A stale one is served
        only while a refresh is in flight — otherwise the caller runs
        live extraction, whose fold replaces the stale snapshot."""
        servings = self.serve_many([plan], span=span)
        return servings[0] if servings else None

    def serve_many(self, plans, *,
                   span=NULL_SPAN) -> list[StoreServing] | None:
        """Answer every plan from the store, or none of them.

        Every plan's freshness is decided under one lock acquisition, so
        a batch is never half served: one unservable plan sends the whole
        batch to the live shared scan (which visits the union of sources
        anyway)."""
        with self._lock:
            mats = [self._materializations.get(self.key_for(plan))
                    for plan in plans]
            refusal = next(filter(None, map(self._refusal, mats)), None)
            if refusal is not None:
                span.annotate(store="miss" if refusal == "unmaterialized"
                              else refusal)
                self._count("store_misses_total",
                            "queries the store could not answer",
                            reason=refusal)
                return None
            servings = [self._serving(mat) for mat in mats]
            span.annotate(
                store="hit",
                entities=sum(len(serving.entities) for serving in servings),
                stale=any(serving.stale for serving in servings))
            return servings

    def _refusal(self, mat: Materialization | None) -> str | None:
        """Why ``mat`` cannot answer right now (None = it can).  A stale
        materialization answers only while a refresh is in flight and
        there is last-known-good data to answer with."""
        if mat is None:
            return "unmaterialized"
        if self._stale(mat) and not (mat.slices
                                     and mat.key in self._refreshing):
            return "stale"
        return None

    def _serving(self, mat: Materialization) -> StoreServing:
        """A serving of ``mat``'s stored entities, in source order."""
        entities = [entity for source_id in sorted(mat.slices)
                    for entity in mat.slices[source_id].entities]
        stale = self._stale(mat) or bool(mat.stale_sources())
        self._count("store_hits_total",
                    "queries answered from the semantic store")
        if stale:
            self._count("stale_served_total",
                        "queries answered with stale store data")
        return StoreServing(entities, ErrorReport(list(mat.errors)), stale)

    # -- filling -------------------------------------------------------

    def commit(self, key: StoreKey, writes: list[SliceWrite],
               error_entries: list[ErrorEntry] | None) -> dict[str, str]:
        """The store's one write step, which every filler ends in;
        returns each written source's verdict (``REFRESHED`` /
        ``KEPT_STALE`` / ``REMOVED``).

        * clean extraction → the slice is replaced and stamped with the
          pre-read fingerprint;
        * partial answer (a problem, but entities came back) → stored,
          flagged stale and unfingerprinted so the next refresh retries;
        * total failure, or a breaker-open source that was not even
          tried (a failed write with no entities) → the last-known-good
          slice stays, flagged stale; with none stored, nothing is.

        The error entries of every source whose slice was written — and
        the source-less ones — are swapped for ``error_entries``; the
        channel is kept source-less first, then by source, so it reads
        the same whichever filler wrote it and in whatever order.
        ``error_entries=None`` says no generation ran (a breaker-open
        commit): the channel is left as it is."""
        with self._lock:
            mat = self._require(key)
            verdicts: dict[str, str] = {}
            written: set[str] = set()
            for write in writes:
                source_id = write.source_id
                if not write.failed or write.entities:
                    self._put_slice(mat, source_id, SourceSlice(
                        source_id, write.entities,
                        None if write.failed else write.fingerprint,
                        write.failed))
                    written.add(source_id)
                    verdicts[source_id] = (KEPT_STALE if write.failed
                                           else REFRESHED)
                elif source_id in mat.slices:
                    mat.slices[source_id].stale = True
                    verdicts[source_id] = KEPT_STALE
                else:
                    self.tombstone(key, source_id)
                    verdicts[source_id] = REMOVED
            if error_entries is not None:
                mat.errors = sorted(
                    [entry for entry in mat.errors
                     if entry.source_id is not None
                     and entry.source_id not in written]
                    + [entry for entry in error_entries
                       if entry.source_id is None
                       or entry.source_id in written],
                    key=lambda entry: (entry.source_id is not None,
                                       entry.source_id or ""))
            return verdicts

    def fold(self, plan, outcome, generation,
             fingerprints: dict[str, str | None], *, span=NULL_SPAN) -> int:
        """Write-through from a live query: materialize its (unmerged)
        generation result.  Returns the number of source slices stored.

        Degraded outcomes (extraction problems) are *not* folded — the
        store only materializes complete answers; per-source failure
        handling with last-known-good data is the delta refresher's
        job.  ``fingerprints`` holds the attempted sources' content
        fingerprints, taken before the extraction read them."""
        if outcome.problems:
            span.annotate(store="fold-skipped",
                          problems=len(outcome.problems))
            return 0
        # Every attempted source gets a slice — an extracted-empty
        # source is knowledge too ("no records" served from the store
        # instead of re-asking).
        attempted = sorted(outcome.per_source_seconds)
        with self._lock:
            mat = self.ensure(plan.class_name,
                              list(plan.required_attributes))
            for source_id in set(mat.slices).difference(attempted):
                self.tombstone(mat.key, source_id)
            self.commit(mat.key, slice_writes(attempted, generation, outcome,
                                              fingerprints),
                        generation.errors.entries)
            self.touch(mat.key)
            span.annotate(store="fold", sources=len(mat.slices),
                          entities=mat.entity_count())
            self._count("store_folds_total",
                        "live query results folded into the store")
            return len(mat.slices)

    # -- incremental maintenance ---------------------------------------

    def _require(self, key: StoreKey) -> Materialization:
        mat = self._materializations.get(key)
        if mat is None:
            raise S2SError(f"no materialization for {key[0]!r} with "
                           f"{len(key[1])} attributes")
        return mat

    def tombstone(self, key: StoreKey, source_id: str) -> int:
        """Delete one source's slice and its error entries;
        returns the number of entities removed."""
        with self._lock:
            mat = self._require(key)
            slice_ = self._put_slice(mat, source_id, None)
            if slice_ is None:
                return 0
            mat.errors = [entry for entry in mat.errors
                          if entry.source_id != source_id]
            return len(slice_.entities)

    def drop(self, key: StoreKey) -> None:
        """Forget one materialization."""
        with self._lock:
            self._materializations.pop(key, None)

    def touch(self, key: StoreKey) -> None:
        """Re-stamp a materialization as fresh (after a refresh)."""
        with self._lock:
            mat = self._require(key)
            mat.materialized_at = self.clock.monotonic()
            mat.expired = False

    # -- invalidation --------------------------------------------------

    def mark_stale(self, source_id: str | None = None) -> int:
        """Force-expire materializations so the next query goes live.

        ``source_id`` limits the expiry to materializations holding that
        source (``S2SMiddleware.invalidate_cache`` and a replacing
        ``register_source``: the caller knows that source changed); None
        expires everything.  Returns the number of materializations
        expired."""
        with self._lock:
            expired = 0
            for mat in self._materializations.values():
                if source_id is None or source_id in mat.slices:
                    mat.expired = True
                    expired += 1
            return expired

    def bump_generation(self) -> int:
        """Mapping-reload coherence: drop every materialization and
        start a new generation, so instances built against the old
        mapping are never served after a reload."""
        with self._lock:
            self._materializations.clear()
            self._refreshing.clear()
            self.generation += 1
            return self.generation

    def reset(self, *, generation: int = 0) -> None:
        """Drop everything and set an explicit generation (warm load)."""
        with self._lock:
            self.bump_generation()
            self.generation = generation

    def adopt(self, mat: Materialization) -> None:
        """Install a fully-built materialization (the warm-load path) in
        place of whatever was stored under its key."""
        with self._lock:
            mat.generation = self.generation
            self._materializations[mat.key] = mat

    # -- provenance / introspection ------------------------------------

    def status(self) -> list[dict]:
        """One summary dict per materialization (for CLI / monitoring)."""
        with self._lock:
            now = self.clock.monotonic()
            rows = []
            for mat in self.materializations():
                age = now - mat.materialized_at
                rows.append({
                    "class": mat.class_name,
                    "attributes": len(mat.attribute_ids),
                    "sources": sorted(mat.slices),
                    "entities": mat.entity_count(),
                    "age_seconds": max(age, 0.0),
                    "fresh": not self._stale(mat),
                    "refreshing": mat.key in self._refreshing,
                    "stale_sources": mat.stale_sources(),
                    "generation": mat.generation,
                })
            return rows

    @property
    def graph(self) -> StoreGraph:
        """A read-only snapshot of every stored triple.  The slices are
        taken under the lock; their indexes are built (the first time
        each slice is asked) and read outside it."""
        with self._lock:
            stored = [(mat.class_name, mat.slices[source_id])
                      for mat in self.materializations()
                      for source_id in sorted(mat.slices)]
        return StoreGraph([slice_.index(self.namespace, class_name)
                           for class_name, slice_ in stored])

    def export(self, format: str = "turtle") -> str:
        """Serialize a snapshot of the store's triples (``turtle`` or
        ``ntriples``), outside the store lock."""
        serialize = _EXPORTERS.get(format)
        if serialize is None:
            raise S2SError(f"unknown store export format {format!r}; "
                           f"expected 'turtle' or 'ntriples'")
        graph = Graph()
        graph.namespace_manager.bind("s2s", self.namespace)
        graph.namespace_manager.bind("store", STORE)
        graph.update(self.graph)
        return serialize(graph)

    def save(self, directory: str) -> str:
        """Persist to ``directory``; see :func:`snapshot.save_store`."""
        from .snapshot import save_store
        with self._lock:
            return save_store(self, directory)

    def load(self, directory: str) -> int:
        """Warm-restart from ``directory``; see :func:`snapshot.load_store`."""
        from .snapshot import load_store
        with self._lock:
            return load_store(self, directory)

    def _put_slice(self, mat: Materialization, source_id: str,
                   slice_: SourceSlice | None) -> SourceSlice | None:
        """Swap one source's slice for ``slice_`` (None deletes it) and
        return the slice it replaced — the only code that writes
        ``mat.slices``.  Nothing else is kept in step: the new slice
        indexes its triples when a snapshot first asks for them."""
        if slice_ is None:
            return mat.slices.pop(source_id, None)
        old = mat.slices.get(source_id)
        mat.slices[source_id] = slice_
        return old

    # -- metrics -------------------------------------------------------

    def _count(self, name: str, help_text: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help_text).inc(**labels)

    def __repr__(self) -> str:
        with self._lock:
            entities = sum(mat.entity_count()
                           for mat in self._materializations.values())
            return (f"SemanticStore(materializations="
                    f"{len(self._materializations)}, "
                    f"entities={entities}, "
                    f"generation={self.generation})")
