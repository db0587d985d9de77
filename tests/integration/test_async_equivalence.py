"""Property-based equivalence of event-loop callers across engines.

The middleware has one blocking entry point; a caller on an event loop
hands it to a worker thread (``await asyncio.to_thread(s2s.query, q)``,
docs/api.md), exactly as the server's connection threads call it.  For
every in-process engine (``serial`` / ``thread``) and every seed, that
hand-off must be answer-identical to calling ``query()`` on the caller's
thread — byte-identical serialization, same degraded flags, same
per-source health visibility — in four worlds (the test names keep the
``aquery`` spelling these checks were written against, before 2.19):

* **healthy** — random selective queries over the demo catalog;
* **degraded** — one primary hard-down with no replica, so every answer
  is visibly best-effort on both paths;
* **failover** — one primary hard-down behind a healthy replica, so both
  paths substitute the same replica;
* **store-served** — a materialized semantic store answers without any
  extraction on both paths (``store_hit`` on every result).

All fault worlds run on a :class:`~repro.clock.FakeClock`: retry backoff
advances fake time only, so the whole suite performs no real sleeps.  Fault
worlds are built fresh per execution shape because the two shapes
consume a fault script at different call offsets.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import MetricsRegistry
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import (assert_equivalent,
                                               harvest_values,
                                               random_queries,
                                               recoverable_plan, result_key)

ENGINES = ("serial", "thread")


def run_sequentially(s2s, queries):
    """``[await asyncio.to_thread(s2s.query, q) for q]`` on a fresh event
    loop — the await order matches the sync shape's call order, so fault
    scripts are consumed identically."""
    async def drive():
        return [await asyncio.to_thread(s2s.query, query)
                for query in queries]
    return asyncio.run(drive())


def healthy_world(mode: str):
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
    return scenario.build_middleware(concurrency=mode,
                                     metrics=MetricsRegistry())


def degraded_world(mode: str, seed: int):
    """One primary never answers and has no replica: every answer is
    best-effort, identically on both paths."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=None, failover=False, clock=clock)
    s2s = scenario.build_middleware(resilience=config, concurrency=mode,
                                    metrics=MetricsRegistry())
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


def recoverable_world(mode: str, seed: int):
    """Every source fails in scripted bursts the retry budget absorbs."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                          multiplier=2.0, jitter="none"),
        breaker=None, failover=False, clock=clock)
    s2s = scenario.build_middleware(resilience=config, concurrency=mode,
                                    metrics=MetricsRegistry())
    for org in scenario.organizations:
        inner = s2s.source_repository.get(org.source_id)
        plan = recoverable_plan(random.Random(seed * 100 + org.index))
        s2s.source_repository.register(
            FlakySource(inner, failure_rate=0.0, seed=org.index,
                        failure_plan=plan, clock=clock),
            replace=True)
    return s2s


def failover_world(mode: str, seed: int):
    """One primary hard-down behind a healthy replica."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=3, n_products=10, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
        clock=clock)
    s2s = scenario.build_middleware(resilience=config, concurrency=mode,
                                    metrics=MetricsRegistry())
    scenario.add_replicas(s2s)
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


def store_world(mode: str):
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    s2s = scenario.build_middleware(store=True, concurrency=mode,
                                    metrics=MetricsRegistry())
    s2s.materialize("SELECT product")
    return s2s


class TestHealthyEquivalence:
    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_aquery_matches_query(self, mode, seed):
        rng = random.Random(seed)
        s2s = healthy_world(mode)
        queries = random_queries(rng, harvest_values(s2s),
                                 rng.randint(3, 6))
        sync_results = [s2s.query(query) for query in queries]
        assert_equivalent(sync_results, run_sequentially(s2s, queries))

    @pytest.mark.parametrize("mode", ENGINES)
    def test_aquery_many_matches_query_many(self, mode):
        rng = random.Random(42)
        s2s = healthy_world(mode)
        queries = random_queries(rng, harvest_values(s2s), 5)
        sync_results = s2s.query_many(queries)
        async_results = asyncio.run(asyncio.to_thread(s2s.query_many,
                                                      queries))
        assert_equivalent(sync_results, async_results)

    def test_concurrent_aqueries_on_one_loop(self):
        """Hand-offs gathered on one loop — concurrent queries on one
        middleware from several threads, the server's traffic shape —
        all agree with the sync answer."""
        s2s = healthy_world("thread")
        expected = result_key(s2s.query("SELECT product"))

        async def drive():
            return await asyncio.gather(
                *(asyncio.to_thread(s2s.query, "SELECT product")
                  for _ in range(8)))

        for result in asyncio.run(drive()):
            assert result_key(result) == expected


class TestFaultWorldEquivalence:
    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_degraded_world(self, mode, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("serial")),
                                 rng.randint(3, 6))
        sync_results = [degraded_world(mode, seed).query(q) for q in queries]
        async_results = run_sequentially(degraded_world(mode, seed), queries)
        assert_equivalent(sync_results, async_results)
        for result in async_results:
            assert result.degraded

    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_recoverable_world_converges(self, mode, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("serial")),
                                 rng.randint(3, 6))
        sync_results = [recoverable_world(mode, seed).query(q)
                        for q in queries]
        async_results = run_sequentially(recoverable_world(mode, seed),
                                         queries)
        assert_equivalent(sync_results, async_results)
        for result in async_results:
            assert not result.degraded  # retries absorbed every burst

    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize("seed", [21, 22])
    def test_failover_world(self, mode, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("serial")),
                                 rng.randint(3, 6))
        sync_results = [failover_world(mode, seed).query(q) for q in queries]
        async_results = run_sequentially(failover_world(mode, seed), queries)
        assert_equivalent(sync_results, async_results)
        for result in async_results:
            assert result.degraded  # replica-served, visibly best-effort


class TestStoreServedEquivalence:
    @pytest.mark.parametrize("mode", ENGINES)
    def test_store_hits_on_both_paths(self, mode):
        s2s = store_world(mode)
        query = 'SELECT product WHERE case = "stainless-steel"'
        sync_result = s2s.query(query)
        async_result = asyncio.run(asyncio.to_thread(s2s.query, query))
        assert sync_result.store_hit and async_result.store_hit
        assert result_key(sync_result) == result_key(async_result)
        assert sync_result.serialize("json") == async_result.serialize("json")


class TestAsyncEngineMechanics:
    def test_mapping_reload_closes_previous_engine(self):
        scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
        s2s = scenario.build_middleware(concurrency="thread",
                                        metrics=MetricsRegistry())
        expected = result_key(s2s.query("SELECT product"))
        previous = s2s.manager
        organizations = {org.source_id: org
                         for org in scenario.organizations}
        s2s.load_mapping(
            s2s.dump_mapping(),
            lambda source_id, info: scenario.connector(
                organizations[source_id]))
        # The replaced engine is closed; the new engine answers
        # identically.
        assert s2s.manager is not previous
        assert result_key(s2s.query("SELECT product")) == expected

    def test_thread_engine_aquery_does_not_need_asyncio_engine(self):
        s2s = healthy_world("thread")
        result = asyncio.run(asyncio.to_thread(s2s.query, "SELECT product"))
        assert len(result.entities) == 16
