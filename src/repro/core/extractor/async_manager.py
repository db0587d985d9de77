"""The asyncio extraction engine: non-blocking per-source fan-out.

The thread-pool engine in :mod:`repro.core.extractor.manager` burns one
OS thread per in-flight source and caps the pool at 16 by default; a
many-slow-sources workload (the paper's WebL web wrappers especially)
spends most of that pool *waiting*.  :class:`AsyncExtractorManager`
replaces the pool with one event loop: every source becomes a task,
hundreds of slow sources stay in flight at once, and no cap exists.

The per-source policy is not re-implemented here.  It lives once, as
the effect-yielding generators on :class:`ExtractorManager`
(``_extract_source`` and the two it delegates to); this module *drives*
them, awaiting each effect where the base class blocks on it:
``RunRule`` / ``RunRules`` -> :meth:`Extractor.aextract` /
:meth:`Extractor.aextract_many` (native for
:class:`~repro.sources.base.AsyncDataSource` connectors, a worker thread
for legacy sync ones), ``Sleep`` -> ``Clock.sleep_async`` (a
:class:`~repro.clock.FakeClock` advances instantly), ``AcquireFlight``
-> :meth:`~repro.core.extractor.cache.FragmentCache.acquire_async` (a
waiting task never blocks the loop its leader runs on).  Retries,
breakers, budget, deadlines, failover, single-flight and every span
name, annotation and problem string are therefore the thread engine's by
construction; what is specific to this engine is the task fan-out.

The synchronous :meth:`AsyncExtractorManager.extract` remains available
as ``asyncio.run(self.extract_async(...))``, which is how
``S2SMiddleware.query()`` keeps its blocking signature under
``concurrency="asyncio"`` — sync and async callers share one engine, one
breaker state, one cache, and the engine owns no thread.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ...ids import AttributePath
from ...obs import NULL_SPAN
from ..resilience import Deadline
from .manager import (AcquireFlight, AnySpan, ExtractionOutcome,
                      ExtractorManager, Policy, RunRule, RunRules, Sleep,
                      _SourceResult)
from .schema import ExtractionSchema


class AsyncExtractorManager(ExtractorManager):
    """Extractor Manager whose fan-out engine is an asyncio event loop.

    Construction is identical to :class:`ExtractorManager`; the
    middleware selects this class when
    ``ResilienceConfig.concurrency.mode == "asyncio"``.  ``extract()``
    stays synchronous (a one-call bridge), ``extract_async()`` is the
    native engine for callers that already live on a loop
    (``aquery()``/``aquery_many()``).
    """

    def extract(self, required: list[AttributePath],
                *, deadline: Deadline | float | None = None,
                span: AnySpan = NULL_SPAN,
                schema: ExtractionSchema | None = None) -> ExtractionOutcome:
        """Blocking facade over :meth:`extract_async`.

        ``asyncio.run`` — the mirror image of the ``asyncio.to_thread``
        that bridges async callers into the blocking engines — so
        synchronous callers (``S2SMiddleware.query()``, the scheduler's
        worker threads) get the asyncio engine on a loop that lives for
        exactly this call: there is no engine thread to start, stop or
        strand a caller on.  Must not be called from inside a running
        loop (use :meth:`extract_async` there).  Concurrent sync callers
        each run their own loop and still share single-flight cache
        dedup, because flights wait on a ``threading.Event``."""
        return asyncio.run(self.extract_async(
            required, deadline=deadline, span=span, schema=schema))

    # -- the engine --------------------------------------------------------

    async def extract_async(self, required: list[AttributePath],
                            *, deadline: Deadline | float | None = None,
                            span: AnySpan = NULL_SPAN,
                            schema: ExtractionSchema | None = None
                            ) -> ExtractionOutcome:
        """Steps 2-4 with every source a task on the calling loop — no
        worker cap.

        Tasks police the deadline themselves between entries, so the
        outer timeout (real loop time) only matters when a connector
        blocks in foreign code; those sources are reported as timed out
        and their tasks cancelled."""
        ctx, outcome = self._begin_run(required, deadline, schema, span)
        tasks = {
            asyncio.ensure_future(self._drive_async(self._extract_source(
                sid, ctx.schema.by_source[sid], ctx, span))): sid
            for sid in ctx.schema.source_ids()}
        results: list[_SourceResult] = []
        if tasks:
            timeout = (None if ctx.deadline.unbounded
                       else max(ctx.deadline.remaining(), 0.05))
            done, not_done = await asyncio.wait(
                set(tasks), timeout=timeout,
                return_when=asyncio.FIRST_EXCEPTION)
            try:
                for task in done:
                    results.append(task.result())  # re-raises when strict
            except BaseException:
                for task in not_done:
                    task.cancel()
                raise
            for task in not_done:
                task.cancel()
                self._report_timed_out(tasks[task], ctx, outcome)
        self._fold_results(ctx, outcome, results)
        return self._finish_run(ctx, outcome)

    async def _drive_async(self, policy: Policy) -> Any:
        """The awaiting driver: :meth:`ExtractorManager._drive` with
        every effect awaited instead of blocked on.  Cancellation
        arrives at one of these awaits and is thrown into the policy
        like any error, so its ``finally`` blocks (leader release, span
        finish) run before the task unwinds."""
        try:
            effect = next(policy)
            while True:
                try:
                    if type(effect) is RunRule:
                        result = await effect.extractor.aextract(
                            effect.source, effect.entry)
                    elif type(effect) is RunRules:
                        result = await effect.extractor.aextract_many(
                            effect.source, effect.entries)
                    elif type(effect) is Sleep:
                        result = await self.config.clock.sleep_async(
                            effect.seconds)
                    elif type(effect) is AcquireFlight:
                        result = await self.cache.acquire_async(effect.entry)
                    else:
                        raise TypeError(f"unhandled effect {effect!r}")
                except BaseException as exc:
                    effect = policy.throw(exc)
                else:
                    effect = policy.send(result)
        except StopIteration as stop:
            return stop.value
