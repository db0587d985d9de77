"""Tests for transient-failure injection and the retry policy."""

import pytest

from repro.config import ResilienceConfig
from repro.core.resilience import RetryPolicy
from repro.errors import TransientSourceError
from repro.sources.flaky import FlakySource
from repro.sources.relational import RelationalDataSource


@pytest.fixture
def flaky_db_source(watch_db):
    inner = RelationalDataSource("DB_1", watch_db)
    return FlakySource(inner, failure_rate=0.5, seed=11)


class TestFlakySource:
    def test_deterministic_failures(self, watch_db):
        def run(seed):
            source = FlakySource(RelationalDataSource("DB_1", watch_db),
                                 failure_rate=0.5, seed=seed)
            outcomes = []
            for _ in range(20):
                try:
                    source.execute_rule("SELECT brand FROM watches")
                    outcomes.append("ok")
                except TransientSourceError:
                    outcomes.append("fail")
            return outcomes

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_failure_rate_zero_never_fails(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0)
        for _ in range(10):
            assert source.execute_rule("SELECT brand FROM watches")
        assert source.failures == 0

    def test_failure_rate_one_always_fails(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=1.0)
        with pytest.raises(TransientSourceError):
            source.execute_rule("SELECT brand FROM watches")

    def test_invalid_rate_rejected(self, watch_db):
        with pytest.raises(ValueError):
            FlakySource(RelationalDataSource("DB_1", watch_db),
                        failure_rate=1.5)

    def test_forwards_identity_and_type(self, flaky_db_source):
        assert flaky_db_source.source_id == "DB_1"
        assert flaky_db_source.source_type == "database"
        assert flaky_db_source.connection_info().source_type == "database"

    def test_fault_stream_is_the_seeds(self, watch_db):
        def outcomes(source):
            results = []
            for _ in range(12):
                try:
                    source.execute_rule("SELECT brand FROM watches")
                    results.append("ok")
                except TransientSourceError:
                    results.append("fail")
            return results

        first, second = (FlakySource(RelationalDataSource("DB_1", watch_db),
                                     failure_rate=0.5, seed=123)
                         for _ in range(2))
        assert outcomes(first) == outcomes(second)
        assert second.attempts == 12

    def test_outage_window_fails_every_call(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0)
        source.schedule_outage(0.0, 60.0)
        with pytest.raises(TransientSourceError, match="scheduled outage"):
            source.execute_rule("SELECT brand FROM watches")

    def test_counts_attempts(self, flaky_db_source):
        for _ in range(10):
            try:
                flaky_db_source.execute_rule("SELECT brand FROM watches")
            except TransientSourceError:
                pass
        assert flaky_db_source.attempts == 10
        assert 0 < flaky_db_source.failures < 10


def _retrying(retries: int) -> ResilienceConfig:
    """Immediate re-attempts only: no breaker, no failover, no delay."""
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=retries + 1, base_delay=0.0,
                          jitter="none"),
        breaker=None, failover=False)


class TestRetryPolicy:
    def _flaky_scenario_middleware(self, scenario, **kwargs):
        s2s = scenario.build_middleware(**kwargs)
        for org in scenario.organizations:
            inner = s2s.source_repository.get(org.source_id)
            s2s.source_repository.register(
                FlakySource(inner, failure_rate=0.4, seed=org.index),
                replace=True)
        return s2s

    def test_without_retries_queries_lose_data(self, scenario):
        s2s = self._flaky_scenario_middleware(scenario)
        result = s2s.query("SELECT product")
        assert not result.errors.ok

    def test_with_retries_queries_recover(self, scenario):
        s2s = self._flaky_scenario_middleware(scenario,
                                              resilience=_retrying(8))
        result = s2s.query("SELECT product")
        assert result.errors.ok
        assert len(result) == 20
        assert s2s.manager.retry_count > 0

    def test_permanent_errors_not_retried(self, scenario):
        s2s = scenario.build_middleware(resilience=_retrying(5))
        db_org = next(o for o in scenario.organizations
                      if o.source_type == "database")
        brand_field = db_org.native_fields.get("brand", "brand")
        db_org.database.execute(
            f"ALTER TABLE products RENAME COLUMN {brand_field} TO gone")
        before = s2s.manager.retry_count
        result = s2s.query("SELECT product")
        # the failing SQL rule is permanent: no retry attempts burned
        assert s2s.manager.retry_count == before
        assert not result.errors.ok

    def test_retries_zero_fails_on_first_transient(self, watch_db):
        from repro import S2SMiddleware, ExtractionRule
        from repro.ontology.builders import watch_domain_ontology
        s2s = S2SMiddleware(watch_domain_ontology())
        s2s.register_source(FlakySource(
            RelationalDataSource("DB_1", watch_db), failure_rate=1.0))
        s2s.register_attribute(("product", "brand"),
                               ExtractionRule.sql("SELECT brand FROM watches"),
                               "DB_1")
        result = s2s.query("SELECT product")
        assert any("transient" in str(e) for e in result.errors.entries)

    def test_retry_works_in_parallel_mode(self, scenario):
        s2s = self._flaky_scenario_middleware(scenario,
                                              resilience=_retrying(8),
                                              concurrency="thread")
        result = s2s.query("SELECT product")
        assert result.errors.ok
        assert len(result) == 20
