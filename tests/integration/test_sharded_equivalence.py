"""Sharded-fleet equivalence and chaos: a killed worker never loses a
query.

The sharded engine must be answer-identical to in-process execution —
byte-identical serialization, same degraded flags, same per-source
health visibility — against every in-process engine (``serial`` /
``thread``) in healthy, degraded, recoverable-burst and
failover worlds.  Fault worlds run on a :class:`~repro.clock.FakeClock`
shared between the coordinator, the workers and the fault injectors, so
the whole suite performs no real sleeps; fault worlds are built fresh
per engine because fault scripts are consumed per run.

The chaos suite kills a thread worker *mid-query* (a scripted
:class:`~repro.sources.flaky.WorkerCrashed` dies silently, exactly like
a killed process) and asserts the answer is entity-for-entity equal to
a run where nothing ever failed — the supervisor restarts the worker
and re-dispatches its sub-plan.  A shard that keeps dying exhausts its
restart budget and degrades into reported problems instead of wedging.

Spawn-pool equivalence is a single smoke here (children cold-start
interpreters); the pickling contract itself is covered source-by-source
in ``tests/sources/test_picklability.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import FakeClock
from repro.config import ConcurrencyConfig, ResilienceConfig
from repro.core.cluster import ShardedExtractorManager
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import MetricsRegistry
from repro.sources.flaky import FlakySource, WorkerCrashed
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import (assert_equivalent,
                                               harvest_values,
                                               random_queries,
                                               recoverable_plan, result_key)

#: The in-process engines the fleet must agree with.
BASELINES = ("serial", "thread")

#: Fleet shapes under test: uneven worker counts split shards unevenly.
FLEETS = (ConcurrencyConfig.sharded(2), ConcurrencyConfig.sharded(3))


def healthy_world(concurrency):
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
    return scenario.build_middleware(concurrency=concurrency,
                                     metrics=MetricsRegistry())


def degraded_world(concurrency, seed: int):
    """One primary never answers and has no replica: every answer is
    best-effort, identically under the fleet and in-process."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=None, failover=False, clock=clock)
    s2s = scenario.build_middleware(resilience=config,
                                    concurrency=concurrency,
                                    metrics=MetricsRegistry())
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


def recoverable_world(concurrency, seed: int):
    """Every source fails in scripted bursts the retry budget absorbs."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                          multiplier=2.0, jitter="none"),
        breaker=None, failover=False, clock=clock)
    s2s = scenario.build_middleware(resilience=config,
                                    concurrency=concurrency,
                                    metrics=MetricsRegistry())
    for org in scenario.organizations:
        inner = s2s.source_repository.get(org.source_id)
        plan = recoverable_plan(random.Random(seed * 100 + org.index))
        s2s.source_repository.register(
            FlakySource(inner, failure_rate=0.0, seed=org.index,
                        failure_plan=plan, clock=clock),
            replace=True)
    return s2s


def failover_world(concurrency, seed: int):
    """One primary hard-down behind a healthy replica."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=3, n_products=10, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
        clock=clock)
    s2s = scenario.build_middleware(resilience=config,
                                    concurrency=concurrency,
                                    metrics=MetricsRegistry())
    scenario.add_replicas(s2s)
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


def queries_for(seed: int) -> list[str]:
    rng = random.Random(seed)
    with healthy_world("serial") as probe:
        return random_queries(rng, harvest_values(probe),
                              rng.randint(3, 6))


class TestHealthyEquivalence:
    @pytest.mark.parametrize("fleet", FLEETS)
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_sharded_matches_every_engine(self, baseline, fleet):
        queries = queries_for(3)
        with healthy_world(baseline) as reference, \
                healthy_world(fleet) as sharded:
            assert_equivalent([reference.query(q) for q in queries],
                              [sharded.query(q) for q in queries])

    def test_query_many_routes_through_the_fleet(self):
        queries = queries_for(4)
        with healthy_world("serial") as reference, \
                healthy_world(FLEETS[0]) as sharded:
            assert isinstance(sharded.manager, ShardedExtractorManager)
            assert_equivalent(reference.query_many(queries),
                              sharded.query_many(queries))
            assert sharded.manager.fleet.started

    def test_more_workers_than_sources_still_answers(self):
        with healthy_world("serial") as reference, \
                healthy_world(ConcurrencyConfig.sharded(9)) as wide:
            assert result_key(wide.query("SELECT product")) == \
                result_key(reference.query("SELECT product"))


def each_on_a_fresh_world(world, concurrency, seed: int) -> list:
    """Every query of ``seed`` on its own fresh ``world``, closed after
    its answer (a fleet world holds a dispatcher and worker threads)."""
    answers = []
    for query in queries_for(seed):
        with world(concurrency, seed) as s2s:
            answers.append(s2s.query(query))
    return answers


class TestFaultWorldEquivalence:
    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_degraded_world(self, baseline, seed):
        reference = each_on_a_fresh_world(degraded_world, baseline, seed)
        sharded = each_on_a_fresh_world(degraded_world, FLEETS[0], seed)
        assert_equivalent(reference, sharded)
        for result in sharded:
            assert result.degraded

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_recoverable_world_converges(self, baseline, seed):
        reference = each_on_a_fresh_world(recoverable_world, baseline, seed)
        sharded = each_on_a_fresh_world(recoverable_world, FLEETS[0], seed)
        assert_equivalent(reference, sharded)
        for result in sharded:
            assert not result.degraded  # retries absorbed every burst

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_failover_world(self, baseline, seed):
        reference = each_on_a_fresh_world(failover_world, baseline, seed)
        sharded = each_on_a_fresh_world(failover_world, FLEETS[0], seed)
        assert_equivalent(reference, sharded)
        for result in sharded:
            assert result.degraded  # replica-served, visibly best-effort


def chaos_world(*, fail_plan, workers=2):
    """A fleet world where one source's extraction kills its worker.

    The scripted :class:`WorkerCrashed` is a BaseException: the worker
    thread dies without reporting, and the supervisor must notice by
    liveness check on the shared FakeClock.  Returns the middleware,
    the shared metrics registry and the sabotaged source id."""
    clock = FakeClock()
    metrics = MetricsRegistry()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=None, failover=False, clock=clock)
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
    s2s = scenario.build_middleware(
        resilience=config, metrics=metrics,
        concurrency=ConcurrencyConfig.sharded(workers))
    victim = scenario.organizations[0].source_id
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(victim), failure_rate=0.0,
                    failure_plan=fail_plan, error_factory=WorkerCrashed,
                    clock=clock),
        replace=True)
    return s2s, metrics, victim


class TestWorkerDeathMidQuery:
    def test_killed_worker_never_loses_the_query(self):
        """The acceptance bar: kill a worker mid-query, get the exact
        answer a never-failed single-process run produces."""
        with healthy_world("serial") as reference:
            expected = reference.query("SELECT product")
        s2s, metrics, _victim = chaos_world(fail_plan=[True])
        with s2s:
            survived = s2s.query("SELECT product")
            assert result_key(survived) == result_key(expected)
            assert survived.serialize("json") == expected.serialize("json")
            assert not survived.degraded
            assert metrics.counter("worker_restarts_total").total() >= 1
            assert metrics.counter("shard_dispatches_total").total() >= 3

    def test_fleet_stays_usable_after_the_kill(self):
        s2s, _metrics, _victim = chaos_world(fail_plan=[True])
        with s2s:
            first = s2s.query("SELECT product")
            second = s2s.query("SELECT product")
            assert result_key(first) == result_key(second)

    def test_restart_budget_exhaustion_degrades_not_wedges(self):
        """A shard that dies on every re-dispatch comes back as
        per-source problems; the other shards' sources still answer."""
        s2s, metrics, victim = chaos_world(fail_plan=[True] * 12)
        with s2s:
            result = s2s.query("SELECT product")
            assert result.degraded
            assert not result.errors.ok
            messages = " ".join(str(entry)
                                for entry in result.errors.entries)
            assert "restart budget" in messages
            # Sources outside the lost shard answered normally.
            surviving = {entity.source_id for entity in result.entities}
            assert surviving
            assert victim not in surviving
            assert metrics.counter("worker_restarts_total").total() >= 3

    def test_per_query_restart_budget_resets(self):
        """A worker lost to one query's chaos must not pre-spend the
        next query's restart budget."""
        s2s, _metrics, _victim = chaos_world(fail_plan=[True, False, True])
        with s2s:
            with healthy_world("serial") as reference:
                expected = result_key(reference.query("SELECT product"))
            assert result_key(s2s.query("SELECT product")) == expected
            assert result_key(s2s.query("SELECT product")) == expected


class TestSpawnPoolSmoke:
    def test_spawn_fleet_matches_serial(self):
        """One end-to-end spawn run: children rebuild the world from
        pickles and the merged answer is entity-for-entity identical."""
        with healthy_world("serial") as reference, \
                healthy_world(ConcurrencyConfig.sharded(
                    2, pool="spawn")) as sharded:
            expected = reference.query("SELECT product")
            spawned = sharded.query("SELECT product")
            assert result_key(spawned) == result_key(expected)
            assert spawned.serialize("json") == expected.serialize("json")
            # Persistent fleet: a second query reuses the children.
            pool = sharded.manager.fleet._pool
            again = sharded.query("SELECT product")
            assert result_key(again) == result_key(expected)
            assert sharded.manager.fleet._pool is pool
