"""The one extraction policy, run by hand, and the parity of its drivers.

The per-source policy is a generator that yields effects
(``manager.EFFECTS``) and never blocks.  The first half of this suite
plays driver itself: it answers every effect from a script — no clock
sleep, no thread, no event loop — and checks what the policy decides.
The second half checks that the blocking and the awaiting driver each
perform *every* effect kind; an effect added to ``EFFECTS`` and taught to
one driver only fails here."""

import asyncio
from dataclasses import replace

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.extractor import AsyncExtractorManager, RawFragment
from repro.core.extractor.manager import (EFFECTS, AcquireFlight, RunRule,
                                          RunRules, Sleep)
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.errors import ExtractionError, TransientSourceError
from repro.ids import AttributePath
from repro.obs import NULL_SPAN
from repro.ontology.builders import watch_domain_ontology
from repro.sources.relational import RelationalDataSource

ATTRIBUTES = [("product", "brand"), ("product", "price")]


def _world(watch_db, *, cache: bool = False, **config) -> S2SMiddleware:
    """DB_1 with one mirror replica DB_R1; the sources are never
    called — every rule execution is answered by the test's script."""
    config.setdefault("clock", FakeClock())
    s2s = S2SMiddleware(watch_domain_ontology(), cache_extractions=cache,
                        resilience=ResilienceConfig(**config))
    s2s.register_source(RelationalDataSource("DB_1", watch_db))
    s2s.register_source(RelationalDataSource("DB_R1", watch_db))
    for attribute in ATTRIBUTES:
        rule = ExtractionRule.sql(f"SELECT {attribute[1]} FROM watches")
        s2s.register_attribute(attribute, rule, "DB_1")
        s2s.register_attribute(attribute, rule, "DB_R1", replica_of="DB_1")
    return s2s


def _source_policy(manager, *, deadline=None):
    """The started-by-nobody policy generator for DB_1, plus its run
    context and outcome."""
    required = [AttributePath.parse(attribute_id)
                for attribute_id in manager.attributes.attribute_ids()]
    ctx, outcome = manager._begin_run(required, deadline, None,
                                      span=NULL_SPAN)
    policy = manager._extract_source("DB_1", ctx.schema.by_source["DB_1"],
                                     ctx)
    return policy, ctx, outcome


def run_by_hand(policy, script):
    """Drive ``policy`` answering each effect with ``script(effect)`` (a
    raised exception is thrown in); returns (result, effects seen)."""
    seen = []
    try:
        effect = next(policy)
        while True:
            seen.append(effect)
            try:
                answer = script(effect)
            except Exception as exc:
                effect = policy.throw(exc)
            else:
                effect = policy.send(answer)
    except StopIteration as stop:
        return stop.value, seen


def _fragment(effect: RunRule) -> RawFragment:
    return RawFragment(effect.entry.attribute, effect.source.source_id,
                       ["v1", "v2"])


def _fragments(effect: RunRules) -> list[RawFragment]:
    return [RawFragment(entry.attribute, effect.source.source_id,
                        ["v1", "v2"], {"scan": 0})
            for entry in effect.entries]


# DB_1 is a RelationalDataSource, which runs batches: the policy asks for
# one (``RunRules``) before its first ``RunRule``.  A script that fails
# every run fails the batch too — and every count below is what it was
# before batches existed, which is the point: a failed batch is dropped
# uncounted and the per-rule policy runs as if it had never been tried.
RUNS = (RunRule, RunRules)


class TestPolicyByHand:
    def test_budget_exhaustion(self, watch_db):
        s2s = _world(watch_db, failover=False, breaker=None,
                     retry=RetryPolicy(max_attempts=5, base_delay=0.5,
                                       jitter="none", budget=1))
        policy, ctx, _ = _source_policy(s2s.manager)

        def script(effect):
            if type(effect) in RUNS:
                raise TransientSourceError("flap")
            return None  # Sleep

        result, seen = run_by_hand(policy, script)
        # The dropped batch, then per entry: attempt, (budgeted) backoff,
        # attempt — then the second entry finds the run's budget already
        # spent.
        assert [type(e) for e in seen] == [RunRules, RunRule, Sleep, RunRule,
                                           RunRule]
        assert seen[2].seconds == pytest.approx(0.5)
        assert len(result.problems) == 2
        assert all("retry budget exhausted" in p.message
                   for p in result.problems)
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.failures, health.retries) == (3, 3, 1)
        assert s2s.manager.retry_count == 1

    def test_breaker_open_fails_over(self, watch_db):
        s2s = _world(watch_db, retry=RetryPolicy(max_attempts=1),
                     breaker=BreakerPolicy(failure_threshold=1,
                                           cooldown_seconds=60.0))
        policy, ctx, _ = _source_policy(s2s.manager)

        def script(effect):
            if effect.source.source_id == "DB_1":
                raise TransientSourceError("down")
            return _fragment(effect)

        result, seen = run_by_hand(policy, script)
        # Entry 1 trips the breaker and fails over; entry 2 is refused
        # by the open breaker without a rule ever being run on DB_1.
        assert [(type(e), e.source.source_id) for e in seen] == [
            (RunRules, "DB_1"), (RunRule, "DB_1"), (RunRule, "DB_R1"),
            (RunRule, "DB_R1")]  # replicas never batch
        assert not result.problems
        assert [f.source_id for f in result.record_set.fragments] == [
            "DB_1", "DB_1"]  # relabelled onto the primary
        assert ctx.health.for_source("DB_1").failovers == 2
        assert ctx.health.for_source("DB_R1").served_for == 2
        assert s2s.manager.breakers.get("DB_1").state == "open"

    def test_deadline_expires_during_backoff(self, watch_db):
        clock = FakeClock()
        s2s = _world(watch_db, clock=clock, failover=False, breaker=None,
                     retry=RetryPolicy(max_attempts=3, base_delay=5.0,
                                       jitter="none"))
        policy, ctx, _ = _source_policy(s2s.manager, deadline=1.0)

        def script(effect):
            if type(effect) in RUNS:
                raise TransientSourceError("slow")
            clock.advance(effect.seconds)  # the backoff "elapses"
            return None

        result, seen = run_by_hand(policy, script)
        assert [type(e) for e in seen] == [RunRules, RunRule, Sleep]
        assert seen[2].seconds == pytest.approx(1.0)  # clamped to the budget
        assert len(result.problems) == 1
        assert "deadline" in result.problems[0].message
        assert ctx.health.for_source("DB_1").deadline_hits == 1

    def test_leader_released_after_failed_flight(self, watch_db):
        s2s = _world(watch_db, cache=True, failover=False, breaker=None)
        cache = s2s.manager.cache
        policy, _, _ = _source_policy(s2s.manager)

        def script(effect):
            if type(effect) is AcquireFlight:
                return cache.acquire(effect.entry)  # elects us leader
            raise ExtractionError("no such column")

        result, seen = run_by_hand(policy, script)
        assert [type(e) for e in seen] == [AcquireFlight, RunRules, RunRule,
                                           AcquireFlight, RunRule]
        assert len(result.problems) == 2
        # Both flights ended: the next caller is elected leader at once
        # instead of waiting on a flight nobody will finish.
        for effect in seen:
            if type(effect) is AcquireFlight:
                assert cache.acquire(effect.entry) == (None, True)
                cache.release(effect.entry)

    def test_error_thrown_in_unwinds_through_finally(self, watch_db):
        s2s = _world(watch_db, cache=True)
        cache = s2s.manager.cache
        policy, _, _ = _source_policy(s2s.manager)
        entry = next(policy).entry
        assert type(policy.send(cache.acquire(entry))) is RunRules
        with pytest.raises(KeyboardInterrupt):
            policy.throw(KeyboardInterrupt())  # not the policy's to handle
        assert cache.acquire(entry) == (None, True)  # leader was released

    def test_policy_yields_every_declared_effect_and_no_other(self,
                                                              watch_db):
        s2s = _world(watch_db, cache=True, breaker=None,
                     retry=RetryPolicy(max_attempts=2, base_delay=0.1,
                                       jitter="none"))
        cache = s2s.manager.cache
        policy, _, _ = _source_policy(s2s.manager)
        failed_once: set = set()

        def script(effect):
            if type(effect) is AcquireFlight:
                return cache.acquire(effect.entry)
            if type(effect) is Sleep:
                return None
            if type(effect) is RunRules:
                raise TransientSourceError("batch")
            if effect.entry.attribute_id not in failed_once:
                failed_once.add(effect.entry.attribute_id)
                raise TransientSourceError("first try")
            return _fragment(effect)

        result, seen = run_by_hand(policy, script)
        assert not result.problems
        assert {type(effect) for effect in seen} == set(EFFECTS)


    def test_batch_serves_every_entry_under_its_own_bookkeeping(self,
                                                                watch_db):
        s2s = _world(watch_db, cache=True)
        cache = s2s.manager.cache
        policy, ctx, _ = _source_policy(s2s.manager)

        def script(effect):
            if type(effect) is AcquireFlight:
                return cache.acquire(effect.entry)
            return _fragments(effect)  # a RunRule would fail here

        result, seen = run_by_hand(policy, script)
        # Taken once, at the first entry's attempt, over both entries;
        # the second entry still asks the cache first.
        assert [type(e) for e in seen] == [AcquireFlight, RunRules,
                                           AcquireFlight]
        assert [e.attribute_id for e in seen[1].entries] == [
            "thing.product.brand", "thing.product.price"]
        assert not result.problems
        assert [f.values for f in result.record_set.fragments] == [
            ["v1", "v2"]] * 2
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.successes, health.failures) == (
            2, 2, 0)
        for effect in (seen[0], seen[2]):  # both written through
            assert cache.acquire(effect.entry)[0].values == ["v1", "v2"]

    def test_batch_covers_only_the_entries_still_to_run(self, watch_db):
        s2s = _world(watch_db, cache=True)
        cache = s2s.manager.cache
        policy, _, _ = _source_policy(s2s.manager)
        first = next(policy).entry  # AcquireFlight for the first entry
        cached = RawFragment(first.attribute, "DB_1", ["hit"])
        effect = policy.send((cached, False))
        # One entry left: nothing to share, so no batch is asked for.
        assert type(effect) is AcquireFlight
        assert type(policy.send(cache.acquire(effect.entry))) is RunRule

    def test_a_batch_error_of_any_type_is_dropped(self, watch_db):
        s2s = _world(watch_db)
        policy, ctx, _ = _source_policy(s2s.manager)

        def script(effect):
            if type(effect) is RunRules:
                raise ValueError("not even an S2SError")
            return _fragment(effect)

        result, seen = run_by_hand(policy, script)
        assert [type(e) for e in seen] == [RunRules, RunRule, RunRule]
        assert not result.problems
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.successes, health.failures) == (
            2, 2, 0)
        assert s2s.manager.breakers.get("DB_1").state == "closed"


class _Fakes:
    """Collaborators that record which twin of each operation ran."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    # the extractor
    def extract(self, source, entry):
        self.calls.append("extract")
        return ("fragment", source, entry)

    async def aextract(self, source, entry):
        self.calls.append("aextract")
        return ("fragment", source, entry)

    def extract_many(self, source, entries):
        self.calls.append("extract_many")
        return ("fragments", source, entries)

    async def aextract_many(self, source, entries):
        self.calls.append("aextract_many")
        return ("fragments", source, entries)

    # the clock
    def sleep(self, seconds):
        self.calls.append("sleep")

    async def sleep_async(self, seconds):
        self.calls.append("sleep_async")

    # the cache
    def acquire(self, entry):
        self.calls.append("acquire")
        return None, True

    async def acquire_async(self, entry):
        self.calls.append("acquire_async")
        return None, True


def _drivers(watch_db, fakes):
    """(name, run) for the blocking and the awaiting driver, both over
    the fake clock and cache."""
    s2s = _world(watch_db)
    blocking = s2s.manager
    awaiting = AsyncExtractorManager(blocking.attributes, blocking.sources,
                                     resilience=blocking.config)
    for manager in (blocking, awaiting):
        manager.config = replace(manager.config, clock=fakes)
        manager.cache = fakes
    return [("blocking", blocking._drive),
            ("awaiting", lambda policy: asyncio.run(
                awaiting._drive_async(policy)))]


def _one_of_each(fakes) -> dict:
    return {RunRule: RunRule(fakes, "source", "entry"),
            RunRules: RunRules(fakes, "source", ["entry"]),
            Sleep: Sleep(0.25),
            AcquireFlight: AcquireFlight("entry")}


EXPECTED_CALLS = {
    "blocking": {RunRule: "extract", RunRules: "extract_many",
                 Sleep: "sleep", AcquireFlight: "acquire"},
    "awaiting": {RunRule: "aextract", RunRules: "aextract_many",
                 Sleep: "sleep_async", AcquireFlight: "acquire_async"},
}


class TestDriverParity:
    def test_every_effect_kind_has_an_instance_here(self):
        assert set(_one_of_each(_Fakes())) == set(EFFECTS)

    @pytest.mark.parametrize("kind", EFFECTS, ids=lambda k: k.__name__)
    def test_both_drivers_perform_the_effect(self, watch_db, kind):
        for name, run in _drivers(watch_db, fakes := _Fakes()):
            effect = _one_of_each(fakes)[kind]

            def policy():
                return (yield effect)

            fakes.calls.clear()
            answer = run(policy())
            assert fakes.calls == [EXPECTED_CALLS[name][kind]], name
            if kind is RunRule:
                assert answer == ("fragment", "source", "entry")
            elif kind is RunRules:
                assert answer == ("fragments", "source", ["entry"])
            elif kind is AcquireFlight:
                assert answer == (None, True)

    def test_both_drivers_throw_effect_errors_into_the_policy(self,
                                                              watch_db):
        class Boom(_Fakes):
            def extract(self, source, entry):
                raise TransientSourceError("boom")

            async def aextract(self, source, entry):
                raise TransientSourceError("boom")

        for name, run in _drivers(watch_db, fakes := Boom()):
            def policy():
                try:
                    yield RunRule(fakes, "source", "entry")
                except TransientSourceError as exc:
                    return f"handled {exc}"

            assert run(policy()) == "handled boom", name

    def test_both_drivers_refuse_an_unknown_effect(self, watch_db):
        for name, run in _drivers(watch_db, _Fakes()):
            def policy():
                yield ("not", "an", "effect")

            with pytest.raises(TypeError, match="unhandled effect"):
                run(policy())
