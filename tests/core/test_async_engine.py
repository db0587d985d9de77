"""Unit tests for the async plumbing under the asyncio engine.

Covers the pieces below the :class:`AsyncExtractorManager` — the
:class:`~repro.sources.base.AsyncDataSource` protocol and its sync
bridge, async fault injection,
:meth:`Extractor.aextract` dispatch, the fragment cache's async
single-flight path, and the adaptive fan-out cap reporting.  Full
engine-level sync/async equivalence lives in
``tests/integration/test_async_equivalence.py``.
"""

import asyncio
import logging
import time

import pytest

from repro.clock import FakeClock
from repro.core.extractor import DatabaseExtractor, WebExtractor
from repro.core.extractor.cache import FragmentCache
from repro.core.extractor.records import RawFragment
from repro.core.mapping.attributes import MappingEntry
from repro.core.mapping.rules import ExtractionRule
from repro.config import ConcurrencyConfig
from repro.errors import ExtractionError, TransientSourceError
from repro.ids import AttributePath
from repro.obs import MetricsRegistry
from repro.sources.base import AsyncDataSource, ConnectionInfo
from repro.sources.flaky import FlakySource
from repro.sources.relational import RelationalDataSource
from repro.workloads import B2BScenario

RULE = "SELECT brand FROM watches"


def sql_entry(attribute="thing.product.brand", code=RULE, source_id="DB_1"):
    return MappingEntry(AttributePath.parse(attribute),
                        ExtractionRule("sql", code), source_id)


class EchoAsyncSource(AsyncDataSource):
    """A minimal native async connector counting its awaited calls."""

    source_type = "database"

    def __init__(self, source_id: str = "ASYNC_1") -> None:
        super().__init__(source_id)
        self.async_calls = 0

    async def aexecute_rule(self, rule: str) -> list[str]:
        self.async_calls += 1
        await asyncio.sleep(0)
        return [f"async:{rule}"]

    def connection_info(self) -> ConnectionInfo:
        return ConnectionInfo(self.source_type, {"location": "inproc"})


class TestAsyncDataSourceBridge:
    def test_sync_call_drives_the_coroutine(self):
        source = EchoAsyncSource()
        assert source.execute_rule("SELECT x") == ["async:SELECT x"]
        assert source.async_calls == 1


class TestFlakyAsync:
    def test_latency_advances_fake_clock_without_sleeping(self, watch_db):
        clock = FakeClock()
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0, latency=5.0, clock=clock)
        before = clock.monotonic()
        started = time.perf_counter()
        values = asyncio.run(source.aexecute_rule(RULE))
        assert time.perf_counter() - started < 1.0  # no real 5s sleep
        assert clock.monotonic() - before == pytest.approx(5.0)
        assert values == source.inner.execute_rule(RULE)

    def test_fault_stream_parity_with_sync(self, watch_db):
        def outcomes(run):
            results = []
            for _ in range(12):
                try:
                    run(RULE)
                    results.append("ok")
                except TransientSourceError:
                    results.append("fail")
            return results

        sync_source = FlakySource(RelationalDataSource("DB_1", watch_db),
                                  failure_rate=0.5, seed=123)
        async_source = FlakySource(RelationalDataSource("DB_1", watch_db),
                                   failure_rate=0.5, seed=123)
        assert outcomes(sync_source.execute_rule) == outcomes(
            lambda rule: asyncio.run(async_source.aexecute_rule(rule)))
        assert async_source.attempts == 12

    def test_outage_window_fails_async_calls(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0)
        source.schedule_outage(0.0, 60.0)
        with pytest.raises(TransientSourceError, match="scheduled outage"):
            asyncio.run(source.aexecute_rule(RULE))

    def test_async_capable_inner_awaited_natively(self):
        inner = EchoAsyncSource()
        source = FlakySource(inner, failure_rate=0.0)
        assert asyncio.run(source.aexecute_rule("SELECT x")) == \
            ["async:SELECT x"]
        assert inner.async_calls == 1


class TestAextract:
    def test_sync_source_matches_extract(self, watch_db):
        source = RelationalDataSource("DB_1", watch_db)
        extractor = DatabaseExtractor()
        entry = sql_entry()
        sync_fragment = extractor.extract(source, entry)
        async_fragment = asyncio.run(extractor.aextract(source, entry))
        assert async_fragment.values == sync_fragment.values
        assert async_fragment.source_id == sync_fragment.source_id

    def test_native_async_source_awaited(self):
        source = EchoAsyncSource()
        fragment = asyncio.run(DatabaseExtractor().aextract(
            source, sql_entry(source_id="ASYNC_1")))
        assert fragment.values == [f"async:{RULE}"]
        assert source.async_calls == 1

    def test_source_type_mismatch_on_both_paths(self, watch_db):
        entry = sql_entry()
        with pytest.raises(ExtractionError, match="cannot extract"):
            asyncio.run(WebExtractor().aextract(EchoAsyncSource(), entry))
        with pytest.raises(ExtractionError, match="cannot extract"):
            asyncio.run(WebExtractor().aextract(
                RelationalDataSource("DB_1", watch_db), entry))

    def test_transient_errors_keep_their_type(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=1.0)
        with pytest.raises(TransientSourceError):
            asyncio.run(DatabaseExtractor().aextract(source, sql_entry()))


class TestAsyncSingleFlight:
    def test_waiter_served_by_leader_result(self):
        metrics = MetricsRegistry()
        cache = FragmentCache(metrics=metrics)
        entry = sql_entry(source_id="database_0")

        async def drive():
            fragment, leading = await cache.acquire_async(entry)
            assert fragment is None and leading is True
            waiter = asyncio.create_task(cache.acquire_async(entry))
            await asyncio.sleep(0.05)  # park the waiter on the flight
            cache.put(entry, RawFragment(entry.attribute, entry.source_id,
                                         ["Seiko"]))
            cache.release(entry)
            fragment, leading = await waiter
            assert fragment.values == ["Seiko"] and leading is False

        asyncio.run(drive())
        assert cache.stats.flights == 1
        assert cache.stats.dedup_hits == 1
        assert metrics.value("cache_single_flight_total", role="leader") == 1
        assert metrics.value("cache_single_flight_total",
                             role="dedup-hit") == 1


class TestFanoutCapReporting:
    def many_source_world(self, concurrency):
        scenario = B2BScenario(n_sources=18, n_products=18, seed=7)
        metrics = MetricsRegistry()
        return scenario.build_middleware(concurrency=concurrency,
                                         metrics=metrics), metrics

    def test_adaptive_cap_logs_and_counts(self, caplog):
        s2s, metrics = self.many_source_world("thread")
        with caplog.at_level(logging.WARNING, logger="repro.core.extractor"):
            outcome = s2s.extract_all()
        assert outcome.total_records() > 0
        assert metrics.value("fanout_capped_total", sources="18") == 1
        assert "fan-out truncated" in caplog.text

    def test_unbounded_workers_never_cap(self, caplog):
        s2s, metrics = self.many_source_world(
            ConcurrencyConfig(mode="thread", max_workers=0))
        with caplog.at_level(logging.WARNING, logger="repro.core.extractor"):
            outcome = s2s.extract_all()
        assert outcome.total_records() > 0
        assert metrics.get("fanout_capped_total") is None
        assert "fan-out truncated" not in caplog.text
