"""The Extractor Manager: the 4-step extraction process of Figure 5.

Step 1 — *know what data to extract*: the query handler supplies the
required attribute list.
Step 2 — *obtain extraction schema*: the attribute repository yields the
rules for those attributes.
Step 3 — *obtain data source information*: each referenced source's
connection definition is fetched from the data source repository.
Step 4 — *extract data*: the mediator delegates each entry to the
extractor registered for the source's type and collects the raw
fragments into per-source record sets.

Failures are collected, not fatal: a dead source must not take down a
federated query.  In ``strict`` mode the first failure raises instead —
useful in tests and during mapping authoring.

Because B2B sources live on other organizations' infrastructure, step 4
runs under the resilience layer (:mod:`repro.core.resilience`, all
configured through one :class:`~repro.core.resilience.ResilienceConfig`):

* transient failures are retried with exponential backoff + full jitter
  under a per-extraction retry budget;
* every source sits behind a circuit breaker — a down source fails fast
  instead of burning the rest of the query's budget;
* a wall-clock :class:`~repro.core.resilience.Deadline` bounds the whole
  run in both the serial and the parallel path, reporting timed-out
  sources as problems instead of hanging;
* when a primary source is exhausted or its breaker is open, the manager
  falls through to *replica* mappings of the same attribute
  (``register_attribute(..., replica_of=...)``);
* a per-source :class:`~repro.core.resilience.SourceHealth` ledger is
  attached to every outcome so callers can distinguish a complete answer
  from a best-effort one.

A ``thread``-mode :class:`~repro.core.resilience.ConcurrencyConfig`
extracts sources concurrently with a thread pool (ablated in experiment
E1).  Nothing here caches: every run reads its sources, and repeat
queries are answered by the semantic store (:mod:`repro.core.store`),
which is coherent by source fingerprint.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any

from ...errors import (CircuitOpenError, DeadlineExceededError, S2SError,
                       TransientSourceError)
from ...ids import AttributePath
from ...obs import NULL_SPAN, MetricsRegistry
from ...obs.trace import NullSpan, Span
from ..mapping.attributes import MappingEntry
from ..mapping.datasources import DataSourceRepository
from ..mapping.repository import AttributeRepository
from ..resilience import (CircuitBreakerRegistry, Deadline, RetryBudget,
                          SourceHealth, SourceHealthRegistry)
from ..resilience.config import ResilienceConfig
from .extractors import ExtractorRegistry, runs_batches
from .records import RawFragment, SourceRecordSet
from .schema import ExtractionSchema

#: Anything span-shaped the instrumentation points accept.
AnySpan = Span | NullSpan

logger = logging.getLogger("repro.core.extractor")


@dataclass
class ExtractionProblem:
    """One failure recorded during extraction (for the error channel)."""

    source_id: str
    attribute_id: str | None
    message: str

    def __str__(self) -> str:
        scope = f"{self.source_id}" + (
            f"/{self.attribute_id}" if self.attribute_id else "")
        return f"[{scope}] {self.message}"


def timed_out_problem(source_id: str,
                      deadline: Deadline) -> ExtractionProblem:
    """The problem recorded for a source abandoned at the deadline (the
    in-process engines and the fleet merge word it alike)."""
    return ExtractionProblem(
        source_id, None,
        f"source did not complete within the {deadline.seconds:.3f}s "
        f"extraction deadline")


@dataclass
class ExtractionOutcome:
    """Everything step 4 produced: record sets + problems + timings +
    per-source health."""

    record_sets: dict[str, SourceRecordSet] = field(default_factory=dict)
    problems: list[ExtractionProblem] = field(default_factory=list)
    missing_attributes: list[AttributePath] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    per_source_seconds: dict[str, float] = field(default_factory=dict)
    health: dict[str, SourceHealth] = field(default_factory=dict)
    deadline_seconds: float | None = None

    @property
    def ok(self) -> bool:
        """True when no problems were recorded."""
        return not self.problems

    @property
    def degraded(self) -> bool:
        """True when the answer is best-effort rather than complete:
        problems, unmapped attributes, replica substitution, deadline
        expiry or a non-closed breaker."""
        return bool(self.problems or self.missing_attributes
                    or any(h.degraded for h in self.health.values()))

    @property
    def degraded_sources(self) -> list[str]:
        """Sources that contributed to degradation, sorted."""
        sources = {p.source_id for p in self.problems}
        sources.update(source_id for source_id, h in self.health.items()
                       if h.degraded)
        return sorted(sources)

    def total_records(self) -> int:
        """Total records across all sources' record sets."""
        return sum(rs.record_count for rs in self.record_sets.values())


@dataclass
class _SourceResult:
    source_id: str
    record_set: SourceRecordSet | None
    problems: list[ExtractionProblem]
    elapsed: float


@dataclass
class _Batch:
    """One source's batch of primary rules, taken lazily (see
    :meth:`ExtractorManager._prefetched`)."""

    span: AnySpan  # the ``source`` span
    later: list[MappingEntry]  # the entry being extracted and those after
    #: entry id -> prefetched fragment; None until the batch is taken
    #: (then empty once consumed, or at once when the batch raised)
    fragments: dict[int, RawFragment] | None = None


@dataclass
class _RunContext:
    """Per-``extract()`` state shared by all source workers."""

    schema: ExtractionSchema
    deadline: Deadline
    budget: RetryBudget
    health: SourceHealthRegistry
    started: float = 0.0  # perf_counter() at the top of the run


class ExtractorManager:
    """Mediator between the mapping repositories and the extractors."""

    def __init__(self, attributes: AttributeRepository,
                 sources: DataSourceRepository,
                 extractors: ExtractorRegistry | None = None,
                 *, strict: bool = False,
                 resilience: ResilienceConfig | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.config = resilience or ResilienceConfig.conservative()
        self.attributes = attributes
        self.sources = sources
        self.extractors = extractors or ExtractorRegistry()
        self.strict = strict
        self.metrics = metrics
        self.breakers = (CircuitBreakerRegistry(
            self.config.breaker, self.config.clock,
            listener=self._breaker_transition
            if metrics is not None else None)
            if self.config.breaker is not None else None)
        self.health = SourceHealthRegistry()  # cumulative across runs
        self.retry_count = 0  # total retried attempts, for observability
        self._rng = self.config.retry.make_rng()
        self._lock = threading.Lock()  # guards _rng and retry_count

    def _breaker_transition(self, source_id: str, old: str,
                            new: str) -> None:
        """Breaker listener: count every state transition per source."""
        self.metrics.counter(
            "breaker_transitions_total",
            "circuit breaker state transitions").inc(
                source=source_id, from_state=old, to_state=new)

    def obtain_extraction_schema(self,
                                 required: list[AttributePath]
                                 ) -> ExtractionSchema:
        """Step 2 (task 2.4.1)."""
        return ExtractionSchema.build(self.attributes, required)

    def extract(self, required: list[AttributePath],
                *, deadline: Deadline | float | None = None,
                span: AnySpan = NULL_SPAN,
                schema: ExtractionSchema | None = None) -> ExtractionOutcome:
        """Run steps 2-4 for the given required-attribute list (step 1 is
        the caller's query analysis).

        ``deadline`` overrides the configured wall-clock budget for this
        run (a number of seconds or a prepared :class:`Deadline`);
        ``span`` is the parent trace span when the caller is traced;
        ``schema`` lets a caller that already built the extraction schema
        (the batch executor shares one between planning and result
        projection) pass it in instead of rebuilding it."""
        ctx, outcome = self._begin_run(required, deadline, schema, span)
        source_ids = ctx.schema.source_ids()
        if self.config.concurrency.parallel and len(source_ids) > 1:
            results = self._extract_parallel(source_ids, ctx, outcome, span)
        else:
            results = [self._extract_source(
                sid, ctx.schema.by_source[sid], ctx, span)
                for sid in source_ids]
        self._fold_results(ctx, outcome, results)
        return self._finish_run(ctx, outcome)

    def _begin_run(self, required: list[AttributePath],
                   deadline: Deadline | float | None,
                   schema: ExtractionSchema | None, span: AnySpan,
                   **engine: Any) -> tuple[_RunContext, ExtractionOutcome]:
        """The preamble every engine shares: resolve the schema and the
        deadline, open the run context and the outcome, annotate the
        caller's span (``engine`` adds engine-specific annotations)."""
        started = time.perf_counter()
        if schema is None:
            schema = self.obtain_extraction_schema(required)
        if deadline is None:
            deadline = Deadline(self.config.deadline_seconds,
                                self.config.clock)
        elif not isinstance(deadline, Deadline):
            deadline = Deadline(float(deadline), self.config.clock)
        ctx = _RunContext(schema, deadline,
                          RetryBudget(self.config.retry.budget),
                          SourceHealthRegistry(), started=started)
        outcome = ExtractionOutcome(missing_attributes=list(schema.missing),
                                    deadline_seconds=deadline.seconds)
        span.annotate(sources=len(schema.by_source),
                      entries=schema.entry_count(),
                      parallel=self.config.concurrency.parallel, **engine)
        return ctx, outcome

    def _fold_results(self, ctx: _RunContext, outcome: ExtractionOutcome,
                      results: list[_SourceResult]) -> None:
        """Fold per-source results into the outcome in sorted source
        order and snapshot the run's health ledger onto it."""
        for result in sorted(results, key=lambda r: r.source_id):
            outcome.problems.extend(result.problems)
            if result.record_set is not None and result.record_set.fragments:
                outcome.record_sets[result.source_id] = result.record_set
            outcome.per_source_seconds[result.source_id] = result.elapsed
        self._stamp_breaker_states(ctx.health)
        outcome.health = ctx.health.snapshot()

    def _finish_run(self, ctx: _RunContext,
                    outcome: ExtractionOutcome) -> ExtractionOutcome:
        """The epilogue every engine shares: accumulate the run's health
        into the manager's cumulative ledger, stamp the wall time, record
        metrics."""
        for ledger in outcome.health.values():
            self.health.for_source(ledger.source_id).merge(ledger)
        outcome.elapsed_seconds = time.perf_counter() - ctx.started
        if self.metrics is not None:
            self._record_outcome_metrics(outcome)
        return outcome

    def close(self) -> None:
        """Release engine resources; a no-op for the thread engine.

        The middleware calls this when a mapping reload replaces the
        manager; the sharded subclass uses it to stop its fleet."""

    def _record_outcome_metrics(self, outcome: ExtractionOutcome) -> None:
        metrics = self.metrics
        metrics.counter("extractions_total",
                        "extraction runs").inc()
        metrics.histogram("extraction_seconds",
                          "wall-clock time of one extraction run"
                          ).observe(outcome.elapsed_seconds)
        if outcome.problems:
            metrics.counter("extraction_problems_total",
                            "failures recorded during extraction").inc(
                                len(outcome.problems))
        if outcome.degraded:
            metrics.counter("degraded_extractions_total",
                            "extraction runs with best-effort answers"
                            ).inc()
        for source_id, health in outcome.health.items():
            if health.failovers:
                metrics.counter("failovers_total",
                                "replica substitutions for a primary"
                                ).inc(health.failovers, source=source_id)

    def _extract_parallel(self, source_ids: list[str], ctx: _RunContext,
                          outcome: ExtractionOutcome,
                          span: AnySpan) -> list[_SourceResult]:
        """Fan out one worker per source, bounded by the deadline.

        Workers police the deadline themselves between entries (their
        sleeps are clamped to the remaining budget), so the outer wait
        timeout only matters when a connector blocks in foreign code —
        then the source is reported as timed out and its thread is
        abandoned rather than joined.

        Pool sizing follows the concurrency config: an explicit
        ``max_workers`` is honored exactly, ``0`` means one worker per
        source (unbounded), and the adaptive default caps at
        ``min(n_sources, 16)`` — when that default cap truncates the
        fan-out, the truncation is logged, counted
        (``fanout_capped_total``) and annotated on the span, so a
        many-slow-sources workload silently queueing behind 16 threads
        is visible (``max_workers=0`` lifts the cap).  The threads are named after the calling thread (a fleet
        worker's read ``query-worker-2_0``, ...) and live for one run."""
        concurrency = self.config.concurrency
        workers = concurrency.workers_for(len(source_ids))
        if concurrency.caps_fanout(len(source_ids)):
            span.annotate(fanout_capped=workers)
            logger.warning(
                "extraction fan-out truncated: %d sources queue behind "
                "%d workers (set ConcurrencyConfig(max_workers=0) for "
                "unbounded threads)", len(source_ids), workers)
            if self.metrics is not None:
                self.metrics.counter(
                    "fanout_capped_total",
                    "extractions whose fan-out was truncated by the "
                    "adaptive worker cap").inc(
                        sources=str(len(source_ids)))
        pool = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix=threading.current_thread().name)
        abandoned = True
        try:
            futures = {
                pool.submit(self._extract_source, sid,
                            ctx.schema.by_source[sid], ctx, span): sid
                for sid in source_ids}
            timeout = (None if ctx.deadline.unbounded
                       else max(ctx.deadline.remaining(), 0.05))
            done, not_done = wait(futures, timeout=timeout,
                                  return_when=FIRST_EXCEPTION)
            abandoned = bool(not_done)
            results = []
            for future in done:
                results.append(future.result())  # re-raises in strict mode
            for future in not_done:
                future.cancel()
                self._report_timed_out(futures[future], ctx, outcome)
        finally:
            # Join idle workers, so the fan-out lives for one run; never
            # join abandoned ones: they police the deadline themselves
            # and exit on their next check.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return results

    @staticmethod
    def _report_timed_out(source_id: str, ctx: _RunContext,
                          outcome: ExtractionOutcome) -> None:
        """Record a source whose worker was abandoned at the deadline."""
        ctx.health.for_source(source_id).deadline_hits += 1
        outcome.problems.append(timed_out_problem(source_id, ctx.deadline))
        outcome.per_source_seconds.setdefault(
            source_id, ctx.deadline.seconds or 0.0)

    def _stamp_breaker_states(self, health: SourceHealthRegistry) -> None:
        if self.breakers is None:
            return
        for source_id in health.snapshot():
            breaker = self.breakers.get(source_id)
            record = health.for_source(source_id)
            record.breaker_state = breaker.state
            record.breaker_trips = breaker.open_count

    def _extract_source(self, source_id: str, entries: list[MappingEntry],
                        ctx: _RunContext,
                        parent_span: AnySpan = NULL_SPAN) -> _SourceResult:
        """Steps 3 and 4 for one source.

        This and the methods it delegates to are the *only*
        implementation of the per-source policy (deadline check, breaker
        gate, attempt, retry budget, backoff, replica failover, span and
        health bookkeeping); serial extraction, thread-pool workers and
        fleet workers all run it."""
        started = time.perf_counter()
        problems: list[ExtractionProblem] = []
        span = parent_span.child("source", source=source_id,
                                 entries=len(entries))
        try:
            try:
                source = self.sources.get(source_id)  # step 3
                extractor = self.extractors.for_source(source)
            except S2SError as exc:
                span.fail(str(exc))
                if self.strict:
                    raise
                problems.append(ExtractionProblem(source_id, None, str(exc)))
                return _SourceResult(source_id, None, problems,
                                     time.perf_counter() - started)
            record_set = SourceRecordSet(source_id)
            batch = (_Batch(span, entries)
                     if len(entries) > 1 and runs_batches(source) else None)
            for index, entry in enumerate(entries):
                if batch is not None:
                    batch.later = entries[index:]
                if ctx.deadline.expired:
                    ctx.health.for_source(source_id).deadline_hits += 1
                    span.annotate(deadline_expired=True)
                    problems.append(ExtractionProblem(
                        source_id, entry.attribute_id,
                        f"extraction deadline of {ctx.deadline.seconds:.3f}s "
                        f"exceeded; skipped {len(entries) - index} remaining "
                        f"entries"))
                    break
                entry_span = span.child("entry",
                                        attribute=entry.attribute_id)
                try:
                    fragment = self._extract_entry(
                        source_id, source, extractor, entry, ctx,
                        entry_span, batch)  # step 4
                except DeadlineExceededError as exc:
                    entry_span.fail(str(exc))
                    if self.strict:
                        raise
                    ctx.health.for_source(source_id).deadline_hits += 1
                    problems.append(ExtractionProblem(
                        source_id, entry.attribute_id, str(exc)))
                    break
                except S2SError as exc:
                    entry_span.fail(str(exc))
                    if self.strict:
                        raise
                    problems.append(ExtractionProblem(
                        source_id, entry.attribute_id, str(exc)))
                else:
                    entry_span.annotate(values=len(fragment.values))
                    record_set.add(fragment)
                finally:
                    entry_span.finish()
            return _SourceResult(source_id, record_set, problems,
                                 time.perf_counter() - started)
        finally:
            if problems:
                span.annotate(problems=len(problems))
            span.finish()

    def _extract_entry(self, source_id: str, source, extractor,
                       entry: MappingEntry, ctx: _RunContext,
                       span: AnySpan = NULL_SPAN,
                       batch: _Batch | None = None) -> RawFragment:
        """One mapping entry: primary attempt chain, then replicas;
        returns the entry's :class:`RawFragment`.

        Failover engages when the primary's retries are exhausted or its
        breaker is open — not on permanent rule errors (a broken rule is
        a mapping bug the replica's own rule would not fix) and not once
        the deadline has expired."""
        try:
            return self._call_with_policy(
                source_id, source, extractor, entry, ctx, span, batch)
        except DeadlineExceededError:
            raise
        except (TransientSourceError, CircuitOpenError) as primary_error:
            replicas = (ctx.schema.replicas_for(entry.attribute_id, source_id)
                        if self.config.failover else [])
            for replica in replicas:
                if ctx.deadline.expired:
                    break
                failover_span = span.child("failover",
                                           replica=replica.source_id)
                try:
                    replica_source = self.sources.get(replica.source_id)
                    replica_extractor = self.extractors.for_source(
                        replica_source)
                    fragment = self._call_with_policy(
                        replica.source_id, replica_source, replica_extractor,
                        replica, ctx, failover_span)
                except S2SError as exc:
                    failover_span.fail(str(exc))
                    failover_span.finish()
                    continue
                failover_span.finish()
                ctx.health.for_source(source_id).failovers += 1
                ctx.health.for_source(replica.source_id).served_for += 1
                # Relabel so positional correlation joins the primary's
                # record set (replicas serve the same records in order).
                return RawFragment(fragment.attribute, source_id,
                                   fragment.values)
            raise primary_error

    def _call_with_policy(self, source_id: str, source, extractor,
                          entry: MappingEntry, ctx: _RunContext,
                          span: AnySpan = NULL_SPAN,
                          batch: _Batch | None = None) -> RawFragment:
        """One rule execution under retry policy, breaker and deadline;
        returns the rule's :class:`RawFragment`.

        ``batch`` is the source's when the entry is a primary of a
        source that runs batches: its *first* attempt is served out of
        the batch (:meth:`_prefetched`), inside the same deadline check,
        breaker gate, attempt span and health bookkeeping as any other;
        retries and replicas always run their one rule.

        Only :class:`~repro.errors.TransientSourceError` is retried —
        permanent failures (rule errors, missing columns, authentication)
        would fail identically every time, so they propagate at once and
        never count toward the breaker threshold."""
        policy = self.config.retry
        breaker = (self.breakers.get(source_id)
                   if self.breakers is not None else None)
        health = ctx.health.for_source(source_id)
        attempt = 0
        while True:
            ctx.deadline.check(f"extraction of {entry.attribute_id} "
                               f"from {source_id!r}")
            if breaker is not None and not breaker.allow():
                error = CircuitOpenError(source_id,
                                         retry_after=breaker.retry_after())
                health.last_error = str(error)
                span.child("breaker-open", source=source_id).finish()
                if self.metrics is not None:
                    self.metrics.counter(
                        "breaker_rejections_total",
                        "calls refused by an open circuit breaker").inc(
                            source=source_id)
                raise error
            health.attempts += 1
            attempt_span = span.child("attempt", number=attempt + 1,
                                      source=source_id)
            try:
                if batch is not None and attempt == 0:
                    fragment = self._prefetched(
                        batch, extractor, source, entry, attempt_span)
                else:
                    fragment = extractor.extract(source, entry)
            except TransientSourceError as exc:
                attempt_span.fail(str(exc))
                attempt_span.annotate(outcome="transient-error")
                attempt_span.finish()
                health.failures += 1
                health.last_error = str(exc)
                if breaker is not None:
                    breaker.record_failure()
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                if not ctx.budget.try_consume():
                    raise TransientSourceError(
                        f"{exc}; per-extraction retry budget exhausted"
                    ) from exc
                with self._lock:
                    self.retry_count += 1
                    delay = policy.delay_for(attempt, self._rng)
                health.retries += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "retries_total",
                        "re-attempts after transient failures").inc(
                            source=source_id)
                if delay > 0:
                    with span.child("backoff", seconds=round(delay, 6)):
                        self.config.clock.sleep(ctx.deadline.clamp(delay))
                continue
            except S2SError as exc:
                attempt_span.fail(str(exc))
                attempt_span.annotate(outcome="permanent-error")
                attempt_span.finish()
                health.failures += 1
                health.last_error = str(exc)
                raise
            if breaker is not None:
                breaker.record_success()
            health.successes += 1
            # The source's digest of the execution it just served (e.g.
            # the relational source's SQL plan), for explain()/traces.
            if fragment.detail:
                attempt_span.annotate(**fragment.detail)
            attempt_span.annotate(outcome="ok")
            attempt_span.finish()
            return fragment

    def _prefetched(self, batch: _Batch, extractor, source,
                    entry: MappingEntry,
                    attempt_span: AnySpan) -> RawFragment:
        """The entry's fragment out of its source's batch.

        The batch is taken once, here, at the first attempt any of the
        source's entries makes — over that entry and the later ones —
        so a source whose breaker is open never runs one, and one whose
        breaker lets only a later entry through batches from that entry
        on.  **Any** exception from it is dropped,
        uncounted, and the source runs per rule from then on (an entry
        the batch holds nothing for runs its own rule): which
        attribute fails, what is retried, what the breaker and the
        health ledger see are the per-rule path's, because they *are*
        that path."""
        if batch.fragments is None:
            batch.fragments = {}
            if len(batch.later) > 1:
                try:
                    fragments = extractor.extract_many(source, batch.later)
                except Exception:
                    logger.debug("batch of %d rules on %r dropped; running "
                                 "per rule", len(batch.later),
                                 source.source_id, exc_info=True)
                else:
                    batch.fragments = {id(later): fragment for later, fragment
                                       in zip(batch.later, fragments)}
                    scans = {(fragment.detail or {}).get("scan")
                             for fragment in fragments}
                    if None not in scans:
                        batch.span.annotate(
                            shared_scan=f"{len(fragments)}/{len(scans)}")
        fragment = batch.fragments.pop(id(entry), None)
        if fragment is None:
            return extractor.extract(source, entry)
        attempt_span.annotate(batched=True)
        return fragment

    def extract_all_registered(self) -> ExtractionOutcome:
        """Eager full materialization: extract every mapped attribute.

        This is the non-query-driven variant measured by the E1 ablation
        (lazy query-driven extraction vs eager materialization)."""
        paths = [AttributePath.parse(attribute_id)
                 for attribute_id in self.attributes.attribute_ids()]
        return self.extract(paths)
