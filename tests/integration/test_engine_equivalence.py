"""End-to-end row-vs-columnar equivalence through the whole middleware.

Two worlds are built identically except for the SQL engine knob
(``B2BScenario(sql_engine=...)``), and ``query_many`` must produce
answer-identical results — byte-identical serialization, same degraded
flags, same health visibility — in a healthy world, a world whose
database rules JOIN a side table, a degraded world (primary hard-down,
no replica) and a failover world (hard-down primary behind a healthy
replica).  The SQL engine sits at the very bottom of
the stack; nothing above it may observe which executor answered.
"""

from __future__ import annotations

import random

import pytest

from repro import ExtractionRule
from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import MetricsRegistry
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import (assert_equivalent,
                                               harvest_values,
                                               random_queries)

ENGINES = ("row", "columnar")


def healthy_world(sql_engine: str):
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7,
                           sql_engine=sql_engine)
    return scenario.build_middleware(metrics=MetricsRegistry())


def join_world(sql_engine: str):
    """The healthy world with every database organization normalized:
    provider countries move to a ``providers`` side table and the
    ``provider.country`` rule becomes a JOIN over it (the paper's rule
    that reaches a second table)."""
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7,
                           sql_engine=sql_engine)
    s2s = scenario.build_middleware(metrics=MetricsRegistry())
    rules = {}
    for org in scenario.organizations:
        if org.source_type != "database":
            continue
        provider = org.native_fields["provider"]
        countries = dict(org.database.execute(
            f"SELECT {provider}, provider_country FROM products").rows)
        org.database.execute("CREATE TABLE providers (name TEXT, "
                             "country TEXT)")
        for name, country in countries.items():
            org.database.execute(
                f"INSERT INTO providers (name, country) "
                f"VALUES ('{name}', '{country}')")
        rules[org.source_id] = (
            f"SELECT providers.country FROM products LEFT JOIN providers "
            f"ON products.{provider} = providers.name "
            f"WHERE products.{provider} IS NOT NULL")
        s2s.register_attribute(("provider", "country"),
                               ExtractionRule.sql(rules[org.source_id]),
                               org.source_id, replace=True)
    return s2s, rules


def degraded_world(sql_engine: str, seed: int):
    """One primary never answers and has no replica."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=4, n_products=12, seed=7,
                           sql_engine=sql_engine)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=None, failover=False, clock=clock)
    s2s = scenario.build_middleware(resilience=config,
                                    metrics=MetricsRegistry())
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


def failover_world(sql_engine: str, seed: int):
    """One primary hard-down behind a healthy replica."""
    clock = FakeClock()
    scenario = B2BScenario(n_sources=3, n_products=10, seed=7,
                           sql_engine=sql_engine)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
        clock=clock)
    s2s = scenario.build_middleware(resilience=config,
                                    metrics=MetricsRegistry())
    scenario.add_replicas(s2s)
    down = scenario.organizations[seed % len(scenario.organizations)]
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(down.source_id),
                    failure_rate=1.0, seed=5, clock=clock),
        replace=True)
    return s2s


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_many_identical_in_healthy_world(self, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("row")),
                                 rng.randint(3, 6))
        row_results = healthy_world("row").query_many(queries)
        columnar_results = healthy_world("columnar").query_many(queries)
        assert_equivalent(row_results, columnar_results)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_query_many_identical_with_join_rules(self, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("row")),
                                 rng.randint(3, 6)) + ["SELECT provider"]
        row_world, _rules = join_world("row")
        columnar_world, rules = join_world("columnar")
        assert_equivalent(row_world.query_many(queries),
                          columnar_world.query_many(queries))
        # normalizing changed the schema, not the answers
        assert_equivalent(healthy_world("columnar").query_many(queries),
                          columnar_world.query_many(queries))
        assert rules, "the world must hold a database organization"
        for source_id, rule in rules.items():
            plan = columnar_world.source_repository.get(
                source_id).explain_sql(rule)
            assert "hash_join providers (LEFT)" in plan

    @pytest.mark.parametrize("seed", [11, 12])
    def test_query_many_identical_in_degraded_world(self, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("row")),
                                 rng.randint(3, 6))
        row_results = degraded_world("row", seed).query_many(queries)
        columnar_results = degraded_world("columnar", seed).query_many(queries)
        assert_equivalent(row_results, columnar_results)
        for result in columnar_results:
            assert result.degraded

    @pytest.mark.parametrize("seed", [21, 22])
    def test_query_many_identical_in_failover_world(self, seed):
        rng = random.Random(seed)
        queries = random_queries(rng, harvest_values(healthy_world("row")),
                                 rng.randint(3, 6))
        row_results = failover_world("row", seed).query_many(queries)
        columnar_results = failover_world("columnar", seed).query_many(queries)
        assert_equivalent(row_results, columnar_results)
        for result in columnar_results:
            assert result.degraded  # replica-served, visibly best-effort

    def test_single_query_serialization_identical(self):
        query = 'SELECT product WHERE case = "stainless-steel"'
        row_answer = healthy_world("row").query(query).serialize("json")
        columnar_answer = healthy_world("columnar").query(query).serialize(
            "json")
        assert row_answer == columnar_answer
