"""Resilience layer unit + integration tests — all fake-clock, no real
sleeps: backoff schedules, retry budgets, breaker state transitions,
deadline expiry in serial and parallel extraction, and the frozen
ResilienceConfig."""

import dataclasses
import random
import threading

import pytest

from repro import S2SMiddleware, ExtractionRule
from repro.clock import FakeClock, SystemClock
from repro.config import ConcurrencyConfig, ResilienceConfig
from repro.core.resilience import (BreakerPolicy, CircuitBreaker, Deadline,
                                   RetryBudget, RetryPolicy)
from repro.errors import (DeadlineExceededError, ExtractionError,
                          TransientSourceError)
from repro.ontology.builders import watch_domain_ontology
from repro.sources.flaky import FlakySource, OutageWindow
from repro.sources.relational import RelationalDataSource


class TestFakeClock:
    def test_sleep_advances_time(self):
        clock = FakeClock()
        clock.sleep(2.5)
        clock.advance(0.5)
        assert clock.monotonic() == 3.0

    def test_negative_advance_ignored(self):
        clock = FakeClock(start=10.0)
        clock.advance(-5)
        clock.sleep(-1)
        assert clock.monotonic() == 10.0


class TestRetryPolicy:
    def test_backoff_ceiling_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter="none")
        ceilings = [policy.backoff_ceiling(n) for n in range(1, 7)]
        assert ceilings == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0, 1.0])

    def test_no_jitter_returns_ceiling(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.2, multiplier=3.0,
                             max_delay=10.0, jitter="none")
        rng = random.Random(0)
        assert policy.delay_for(2, rng) == pytest.approx(0.6)

    def test_full_jitter_stays_within_bounds(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter="full", seed=42)
        rng = policy.make_rng()
        for attempt in range(1, 20):
            delay = policy.delay_for(attempt, rng)
            assert 0.0 <= delay <= policy.backoff_ceiling(attempt)

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy(seed=7, max_attempts=5)
        first = [policy.delay_for(n, policy.make_rng()) for n in (1, 2, 3)]
        second = [policy.delay_for(n, policy.make_rng()) for n in (1, 2, 3)]
        assert first == second

    def test_legacy_conversion_keeps_seed_semantics(self):
        policy = RetryPolicy.from_legacy(3, 0.25)
        assert policy.max_attempts == 4
        assert policy.retries == 3
        assert policy.jitter == "none"
        rng = random.Random(0)
        # constant delay, every attempt
        assert [policy.delay_for(n, rng) for n in (1, 2, 5)] == \
            pytest.approx([0.25, 0.25, 0.25])

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter="gaussian")
        with pytest.raises(ValueError):
            RetryPolicy.from_legacy(-1, 0.0)


class TestRetryBudget:
    def test_counts_down_and_exhausts(self):
        budget = RetryBudget(2)
        assert budget.try_consume()
        assert budget.try_consume()
        assert not budget.try_consume()
        assert budget.exhausted
        assert budget.remaining == 0

    def test_unbounded(self):
        budget = RetryBudget(None)
        for _ in range(100):
            assert budget.try_consume()
        assert budget.remaining is None


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        policy = BreakerPolicy(failure_threshold=3, cooldown_seconds=10.0,
                               **kwargs)
        return CircuitBreaker("src", policy, clock), clock

    def test_closed_to_open_after_threshold(self):
        breaker, _clock = self._breaker()
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.open_count == 1

    def test_success_resets_the_streak(self):
        breaker, _clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_to_half_open_after_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == "half-open"
        assert breaker.allow()          # the single probe
        assert not breaker.allow()      # half_open_max_calls=1

    def test_half_open_success_closes(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.open_count == 2
        assert breaker.retry_after() == pytest.approx(10.0)


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.0)
        assert not deadline.expired
        clock.advance(2.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check("the query")

    def test_unlimited_never_expires(self):
        deadline = Deadline(None, FakeClock())
        assert deadline.unbounded
        assert not deadline.expired
        deadline.check()

    def test_clamp_caps_sleeps(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock)
        assert deadline.clamp(5.0) == pytest.approx(1.0)
        assert deadline.clamp(0.25) == pytest.approx(0.25)


class TestFaultInjection:
    def test_outage_window_fails_inside_only(self, watch_db):
        clock = FakeClock()
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0, clock=clock,
                             outages=[(2.0, 4.0)])
        assert source.execute_rule("SELECT brand FROM watches")
        clock.advance(3.0)
        with pytest.raises(TransientSourceError, match="scheduled outage"):
            source.execute_rule("SELECT brand FROM watches")
        clock.advance(2.0)
        assert source.execute_rule("SELECT brand FROM watches")

    def test_schedule_outage_is_relative_to_now(self, watch_db):
        clock = FakeClock()
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0, clock=clock)
        clock.advance(5.0)
        window = source.schedule_outage(1.0, 2.0)
        assert isinstance(window, OutageWindow)
        assert source.execute_rule("SELECT brand FROM watches")
        clock.advance(1.5)
        with pytest.raises(TransientSourceError):
            source.execute_rule("SELECT brand FROM watches")

    def test_latency_advances_the_clock(self, watch_db):
        clock = FakeClock()
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0, latency=0.5, clock=clock)
        source.execute_rule("SELECT brand FROM watches")
        source.execute_rule("SELECT brand FROM watches")
        assert clock.monotonic() == pytest.approx(1.0)

    def test_scripted_failure_plan_precedes_random_stream(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_rate=0.0,
                             failure_plan=[True, False, True])
        with pytest.raises(TransientSourceError, match="scripted"):
            source.execute_rule("SELECT brand FROM watches")
        assert source.execute_rule("SELECT brand FROM watches")
        with pytest.raises(TransientSourceError):
            source.execute_rule("SELECT brand FROM watches")
        # plan exhausted, rate 0.0 → healthy forever after
        assert source.execute_rule("SELECT brand FROM watches")

    def test_configurable_error_class(self, watch_db):
        source = FlakySource(RelationalDataSource("DB_1", watch_db),
                             failure_plan=[True],
                             error_factory=ExtractionError)
        with pytest.raises(ExtractionError):
            source.execute_rule("SELECT brand FROM watches")

    def test_concurrent_calls_keep_deterministic_failure_count(self,
                                                               watch_db):
        def run(threads, calls_per_thread):
            source = FlakySource(RelationalDataSource("DB_1", watch_db),
                                 failure_rate=0.5, seed=123)

            def hammer():
                for _ in range(calls_per_thread):
                    try:
                        source.execute_rule("SELECT brand FROM watches")
                    except TransientSourceError:
                        pass

            workers = [threading.Thread(target=hammer)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            return source.attempts, source.failures

        serial_attempts, serial_failures = run(1, 200)
        assert serial_attempts == 200
        assert 0 < serial_failures < 200
        # The lock serializes the RNG, so the failure count over N draws
        # is a pure function of (seed, N) whatever the interleaving.
        for _ in range(3):
            parallel_attempts, parallel_failures = run(4, 50)
            assert parallel_attempts == 200
            assert parallel_failures == serial_failures


def _single_source_middleware(watch_db, config, *, flaky_kwargs=None):
    """One flaky DB source with three mapped product attributes."""
    s2s = S2SMiddleware(watch_domain_ontology(), resilience=config)
    inner = RelationalDataSource("DB_1", watch_db)
    flaky = FlakySource(inner, **(flaky_kwargs or {}))
    s2s.register_source(flaky)
    s2s.register_attribute(("product", "brand"),
                           ExtractionRule.sql("SELECT brand FROM watches"), "DB_1")
    s2s.register_attribute(("product", "model"),
                           ExtractionRule.sql("SELECT model FROM watches"), "DB_1")
    s2s.register_attribute(("product", "price"),
                           ExtractionRule.sql("SELECT price_cents FROM watches"),
                           "DB_1")
    return s2s, flaky


class TestManagerRetryIntegration:
    def test_backoff_sleeps_on_the_injected_clock(self, watch_db):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0,
                              max_delay=10.0, jitter="none"),
            breaker=None, clock=clock)
        s2s, _flaky = _single_source_middleware(
            watch_db, config,
            flaky_kwargs={"failure_plan": [True, True, False],
                          "failure_rate": 0.0, "clock": clock})
        outcome = s2s.manager.extract_all_registered()
        assert outcome.ok
        # two retries: backoff 0.1 then 0.2 fake-seconds, zero real sleep
        assert clock.monotonic() == pytest.approx(0.3)
        assert s2s.manager.retry_count == 2
        assert outcome.health["DB_1"].retries == 2
        assert not outcome.degraded  # recovered-by-retry is still complete

    def test_retry_budget_bounds_a_whole_extraction(self, watch_db):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=10, base_delay=0.0, budget=3),
            breaker=None, clock=clock)
        s2s, _flaky = _single_source_middleware(
            watch_db, config,
            flaky_kwargs={"failure_rate": 1.0, "clock": clock})
        outcome = s2s.manager.extract_all_registered()
        assert not outcome.ok
        # 3 entries x 10 attempts would be 27 retries; the budget caps 3
        assert s2s.manager.retry_count == 3
        assert any("retry budget exhausted" in p.message
                   for p in outcome.problems)

    def test_deadline_expiry_serial(self, watch_db):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1), breaker=None,
            deadline_seconds=0.75, clock=clock)
        s2s, _flaky = _single_source_middleware(
            watch_db, config,
            flaky_kwargs={"failure_rate": 0.0, "latency": 0.5,
                          "clock": clock})
        outcome = s2s.manager.extract_all_registered()
        # entries cost 0.5 fake-s each: the second finishes at 1.0s (past
        # the budget), so the third is skipped with a deadline problem
        assert outcome.degraded
        assert any("deadline" in p.message for p in outcome.problems)
        assert outcome.health["DB_1"].deadline_hits >= 1
        assert len(outcome.record_sets["DB_1"].fragments) == 2

    def test_deadline_expiry_parallel(self, scenario):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1), breaker=None,
            deadline_seconds=1.0, concurrency=ConcurrencyConfig.threads(),
            clock=clock)
        s2s = scenario.build_middleware(resilience=config)
        for org in scenario.organizations:
            inner = s2s.source_repository.get(org.source_id)
            s2s.source_repository.register(
                FlakySource(inner, failure_rate=0.0, latency=0.2,
                            clock=clock),
                replace=True)
        result = s2s.query("SELECT product")
        # 4 sources x 8 entries x 0.2 fake-s = 6.4 fake-s of work against
        # a 1.0s budget: the run must degrade, not hang
        assert result.degraded
        assert any("deadline" in str(e) for e in result.errors.entries)
        assert any(h.deadline_hits for h in result.health.values())

    def test_permanent_errors_do_not_trip_breakers(self, watch_db):
        clock = FakeClock()
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=5),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=5.0),
            clock=clock)
        s2s, _flaky = _single_source_middleware(
            watch_db, config,
            flaky_kwargs={"failure_plan": [True] * 8, "failure_rate": 0.0,
                          "error_factory": ExtractionError, "clock": clock})
        result = s2s.query("SELECT product")
        assert not result.errors.ok
        # permanent errors: no retries burned, breaker still closed
        assert s2s.manager.retry_count == 0
        assert result.health["DB_1"].breaker_state == "closed"
        assert s2s.open_breakers() == []


class TestResilienceConfigShim:
    def test_config_object_does_not_warn(self, ontology, recwarn):
        S2SMiddleware(ontology, resilience=ResilienceConfig(
            concurrency=ConcurrencyConfig.threads()))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_frozen_and_replace_round_trips(self, ontology):
        config = ResilienceConfig(concurrency=ConcurrencyConfig.threads())
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.deadline_seconds = 1.0
        # The middleware holds the caller's object, not a private copy,
        # so there is no second config an assignment could silently miss.
        s2s = S2SMiddleware(ontology, resilience=config)
        assert s2s.resilience is config
        assert s2s.manager.config is config
        with pytest.raises(dataclasses.FrozenInstanceError):
            s2s.resilience.deadline_seconds = 1.0
        switched = dataclasses.replace(
            config, concurrency=ConcurrencyConfig.threads(4))
        assert switched.concurrency == ConcurrencyConfig.threads(4)
        assert dataclasses.replace(switched,
                                   concurrency=config.concurrency) == config

    def test_replace_round_trip_is_silent(self, recwarn):
        from dataclasses import replace
        config = ResilienceConfig(
            concurrency=ConcurrencyConfig(mode="thread", max_workers=0))
        again = replace(config, deadline_seconds=2.0)
        assert again.concurrency == config.concurrency
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_concurrency_validation(self):
        with pytest.raises(ValueError):
            ConcurrencyConfig(mode="fibers")
        with pytest.raises(ValueError):
            ConcurrencyConfig(max_workers=-1)

    def test_workers_for_and_cap_reporting(self):
        adaptive = ConcurrencyConfig.threads()
        assert adaptive.workers_for(4) == 4
        assert adaptive.workers_for(40) == 16
        assert adaptive.caps_fanout(40)
        assert not adaptive.caps_fanout(16)
        exact = ConcurrencyConfig.threads(max_workers=2)
        assert exact.workers_for(40) == 2
        assert not exact.caps_fanout(40)  # deliberate bound, not a surprise
        unbounded = ConcurrencyConfig(mode="thread", max_workers=0)
        assert unbounded.workers_for(40) == 40
        assert not unbounded.caps_fanout(40)

    def test_default_matches_seed_behaviour(self, ontology):
        s2s = S2SMiddleware(ontology)
        config = s2s.manager.config
        assert config.retry.max_attempts == 1
        assert config.breaker is None
        assert config.deadline_seconds is None
        assert config.concurrency.parallel is False
        assert config.retry.retries == 0
        assert config.retry.base_delay == 0.0

    def test_no_kwargs_is_the_conservative_default_without_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            s2s = S2SMiddleware(watch_domain_ontology())
        # Equal field for field once the (identity-compared) clocks match.
        clock = SystemClock()
        assert dataclasses.replace(s2s.resilience, clock=clock) \
            == dataclasses.replace(ResilienceConfig.conservative(),
                                   clock=clock)

    def test_clock_is_shared_with_breakers(self, ontology):
        clock = FakeClock()
        s2s = S2SMiddleware(ontology, resilience=ResilienceConfig(
            clock=clock, breaker=BreakerPolicy()))
        assert s2s.manager.breakers is not None
        assert s2s.manager.breakers.clock is clock
        assert isinstance(ResilienceConfig().clock, SystemClock)
