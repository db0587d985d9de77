"""Change-aware incremental refresh: re-extract only what changed.

A full refresh of a materialization would re-run extraction against
every source — exactly the cost the store exists to avoid.  The
:class:`DeltaRefresher` instead:

1. takes the current extraction schema for the materialization's
   required attributes (sources may have been added or removed since
   the last refresh — removed sources are tombstoned, new ones are
   always extracted);
2. skips sources whose circuit breaker is open, keeping their
   last-known-good slice marked stale (graceful degradation) instead
   of failing the refresh;
3. compares each remaining source's current content fingerprint
   (:func:`~repro.core.store.snapshot.fingerprint_source`) against the
   one stored at materialization time — matching fingerprints mean the
   source is *unchanged* and is not touched at all.  A pass over every
   materialization (:meth:`DeltaRefresher.refresh`) probes each source
   once, before it reads any;
4. extracts only the changed sources, through a restricted
   :class:`~repro.core.extractor.schema.ExtractionSchema` handed to the
   Extractor Manager (so retries, breakers, deadlines and failover all
   still apply), regenerates their instances, and hands the delta to
   :meth:`SemanticStore.commit` — untouched sources' slices are left
   exactly as they were, and in a re-extracted slice only the entities
   that differ write triples.

Per-source failures during the delta extraction degrade instead of
destroy; the verdict (keep the last-known-good slice marked stale, or
tombstone it) is the store's, decided in ``commit``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...errors import S2SError
from ...obs import NULL_SPAN, MetricsRegistry, Tracer
from ..extractor.manager import ExtractorManager
from ..extractor.schema import ExtractionSchema
from ..instances.generator import InstanceGenerator
from .snapshot import fingerprint_sources
from .store import Materialization, SemanticStore, SliceWrite, slice_writes


@dataclass
class RefreshResult:
    """What one materialization's refresh did, source by source."""

    class_name: str
    attribute_ids: frozenset[str]
    #: sources whose data was re-extracted and committed
    refreshed: list[str] = field(default_factory=list)
    #: sources whose fingerprint matched — not touched at all
    unchanged: list[str] = field(default_factory=list)
    #: failing/breaker-open sources kept serving last-known-good data
    kept_stale: list[str] = field(default_factory=list)
    #: sources no longer in the mapping — slices tombstoned
    removed: list[str] = field(default_factory=list)
    #: sources the delta extraction actually visited (the E15 assertion
    #: target: a 1-changed-source refresh must list exactly that source)
    extracted_sources: list[str] = field(default_factory=list)
    #: what the delta extraction reported going wrong, one line each
    problems: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    trace: object | None = None

    def record(self, verdicts: dict[str, str]) -> None:
        """File each source under its :meth:`SemanticStore.commit`
        verdict's list."""
        for source_id, verdict in verdicts.items():
            getattr(self, verdict).append(source_id)

    @property
    def noop(self) -> bool:
        """True when nothing was extracted, kept stale or removed."""
        return not (self.refreshed or self.kept_stale or self.removed)

    def summary(self) -> str:
        return (f"{self.class_name}: {len(self.refreshed)} refreshed, "
                f"{len(self.unchanged)} unchanged, "
                f"{len(self.kept_stale)} kept stale, "
                f"{len(self.removed)} removed")


@dataclass
class DeltaPlan:
    """A read-only change diff for one materialization.

    What :meth:`DeltaRefresher.plan_changes` hands the ingest planner:
    which sources need an EXTRACT job and which can be skipped, decided
    entirely from cheap probes (:func:`fingerprint_source` rides
    ``content_fingerprint()`` → ``SimulatedWeb.peek``, so unchanged web
    sources are ruled out without a single counted fetch)."""

    changed: list[str] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)
    kept_stale: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    fingerprints: dict[str, str | None] = field(default_factory=dict)
    #: the extraction schema the diff was taken against
    schema: ExtractionSchema | None = None
    #: wall-clock time taking the diff cost (the probes, mostly)
    seconds: float = 0.0


class DeltaRefresher:
    """Refreshes a :class:`SemanticStore` through the live pipeline."""

    def __init__(self, store: SemanticStore, manager: ExtractorManager,
                 generator: InstanceGenerator, *,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.store = store
        self.manager = manager
        self.generator = generator
        self.tracer = tracer
        self.metrics = metrics

    # -- public entry points -------------------------------------------

    def refresh(self, *, force: bool = False) -> list[RefreshResult]:
        """Refresh every materialization; returns one result each.

        Every materialization's diff is taken before any is applied, so
        each source is fingerprinted once per pass, before the pass
        reads anything.  ``force=True`` ignores fingerprints and
        re-extracts every reachable source (breaker-open sources are
        still skipped)."""
        probed: dict[str, str | None] = {}
        plans = [(mat, self.plan_changes(mat, force=force, probed=probed))
                 for mat in self.store.materializations()]
        return [self.refresh_one(mat, force=force, plan=plan)
                for mat, plan in plans]

    def materialize(self, plan) -> RefreshResult:
        """Materialize one query plan (or force-refresh it if present).

        The first materialization must be complete: if any source's
        extraction was degraded, nothing is left behind and this
        raises."""
        first = self.store.lookup(plan) is None
        mat = self.store.ensure(plan.class_name,
                                list(plan.required_attributes))
        result = self.refresh_one(mat, force=True)
        if first and (result.kept_stale or result.removed):
            self.store.drop(mat.key)
            raise S2SError(
                f"cannot materialize {plan.class_name!r}: extraction "
                f"was degraded ({'; '.join(result.problems[:3])})")
        return result

    def plan_changes(self, mat: Materialization, *, force: bool = False,
                     probed: dict[str, str | None] | None = None
                     ) -> DeltaPlan:
        """Cheap-probe diff of one materialization, with no side effects.

        The one place the per-source verdict is decided — read-only:
        nothing is tombstoned, marked stale or extracted.
        :meth:`refresh_one` applies it, and the ingest pipeline plans its
        EXTRACT jobs from it, so an unchanged web source never even
        enqueues work.  ``probed``: fingerprints already taken in this
        pass, reused, and where the ones this diff takes are added."""
        started = time.perf_counter()
        schema = self.manager.obtain_extraction_schema(mat.required)
        plan = DeltaPlan(schema=schema)
        current_sources = set(schema.by_source)
        plan.removed = sorted(set(mat.slices) - current_sources)
        open_sources = (set(self.manager.breakers.open_sources())
                        if self.manager.breakers is not None else set())
        # Breaker open over a stored slice: don't even knock — keep
        # serving the last-known-good slice, marked stale.
        plan.kept_stale = sorted(current_sources & open_sources
                                 & set(mat.slices))
        probing = sorted(current_sources.difference(plan.kept_stale))
        if probed is None:
            probed = {}
        probed.update(fingerprint_sources(
            self.manager.sources,
            [source_id for source_id in probing if source_id not in probed]))
        plan.fingerprints = {source_id: probed[source_id]
                             for source_id in probing}
        for source_id, fingerprint in plan.fingerprints.items():
            slice_ = mat.slices.get(source_id)
            if (not force and slice_ is not None and not slice_.stale
                    and fingerprint is not None
                    and fingerprint == slice_.fingerprint):
                plan.unchanged.append(source_id)
                continue
            plan.changed.append(source_id)
        plan.seconds = time.perf_counter() - started
        return plan

    # -- the delta algorithm -------------------------------------------

    def refresh_one(self, mat: Materialization, *, force: bool = False,
                    plan: DeltaPlan | None = None) -> RefreshResult:
        """Refresh one materialization, re-extracting only its changed
        sources (all reachable ones when ``force``).  ``plan``: its diff,
        when the caller took it already; the time that took counts
        toward ``elapsed_seconds``."""
        started = time.perf_counter() - (plan.seconds if plan is not None
                                         else 0.0)
        result = RefreshResult(mat.class_name, mat.attribute_ids)
        root = (self.tracer.start("refresh", query_class=mat.class_name,
                                  force=force)
                if self.tracer is not None else NULL_SPAN)
        key = mat.key
        self.store.begin_refresh(key)
        try:
            self._refresh_under(mat, key, force, plan, result, root)
        finally:
            self.store.end_refresh(key)
            root.finish()
        result.elapsed_seconds = time.perf_counter() - started
        result.trace = (self.tracer.trace_of(root)
                        if self.tracer is not None else None)
        self._observe(result)
        return result

    def _refresh_under(self, mat: Materialization, key, force: bool,
                       plan: DeltaPlan | None, result: RefreshResult,
                       root) -> None:
        """Apply :meth:`plan_changes`' verdict: tombstone, commit the
        breaker-open sources as failed, trace every source's verdict,
        extract the changed ones."""
        with root.child("diff") as diff_span:
            if plan is None:
                plan = self.plan_changes(mat, force=force)
            verdicts = {**dict.fromkeys(plan.kept_stale, "breaker-open"),
                        **dict.fromkeys(plan.unchanged, "unchanged"),
                        **dict.fromkeys(plan.changed, "changed")}
            diff_span.annotate(sources=len(verdicts))
            for source_id in sorted(verdicts):
                diff_span.child("source", source=source_id,
                                verdict=verdicts[source_id]).finish()
            diff_span.annotate(changed=len(plan.changed),
                               unchanged=len(plan.unchanged),
                               kept_stale=len(plan.kept_stale))

        # Sources that left the mapping: their data is gone for good.
        for source_id in plan.removed:
            self.store.tombstone(key, source_id)
        result.removed.extend(plan.removed)
        result.unchanged.extend(plan.unchanged)
        # Breaker-open sources were not tried: each is a failed write
        # with no entities, whose fate the store's commit decides.
        result.record(self.store.commit(
            key, [SliceWrite(source_id, failed=True)
                  for source_id in plan.kept_stale], None))
        if plan.changed or force:
            # (forced with nothing reachable still commits: the
            # source-less error entries are part of the answer)
            self._extract_delta(mat, plan, result, root)
        self.store.touch(key)

    def _extract_delta(self, mat: Materialization, plan: DeltaPlan,
                       result: RefreshResult, root) -> None:
        """Extract only the changed sources and commit what came back."""
        with root.child("extract", sources=len(plan.changed)) as span:
            outcome = self.manager.extract(
                list(mat.required), span=span,
                schema=plan.schema.restricted_to(plan.changed))
        result.extracted_sources = sorted(outcome.per_source_seconds)
        result.problems = [str(problem) for problem in outcome.problems]
        with root.child("generate"):
            generation = self.generator.generate(outcome, mat.class_name)
        with root.child("store") as span:
            result.record(self.store.commit(
                mat.key, slice_writes(plan.changed, generation, outcome,
                                      plan.fingerprints),
                generation.errors.entries))
            span.annotate(store="commit", refreshed=len(result.refreshed))

    # -- helpers -------------------------------------------------------

    def _observe(self, result: RefreshResult) -> None:
        if self.metrics is None:
            return
        self.metrics.histogram(
            "store_refresh_seconds",
            "wall-clock time of one materialization refresh").observe(
                result.elapsed_seconds)
        self.metrics.counter(
            "store_refreshes_total",
            "materialization refresh runs").inc()
        if result.kept_stale:
            self.metrics.counter(
                "store_kept_stale_total",
                "sources kept serving last-known-good data").inc(
                    len(result.kept_stale))
