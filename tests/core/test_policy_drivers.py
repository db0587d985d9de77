"""The one extraction policy, run by hand.

The per-source policy calls two collaborators: the extractor
(``extract`` / ``extract_many``) and the clock (``sleep``).  This suite
scripts both — a recording extractor answers every rule from the test's
script, a recording :class:`~repro.clock.FakeClock` never really sleeps
— and checks what the policy decides from the call sequence it
produced: no source is read, no thread is started."""

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.extractor import DatabaseExtractor, RawFragment
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.errors import TransientSourceError
from repro.ids import AttributePath
from repro.obs import NULL_SPAN
from repro.ontology.builders import watch_domain_ontology
from repro.sources.relational import RelationalDataSource

ATTRIBUTES = [("product", "brand"), ("product", "price")]


class RecordingExtractor(DatabaseExtractor):
    """Logs each call as ``extract(DB_1)`` / ``extract_many(DB_1)`` and
    answers it with ``script(kind, source, entries)`` (a raised exception
    propagates to the policy)."""

    def __init__(self, calls: list, script) -> None:
        super().__init__()
        self.calls, self.script = calls, script
        self.entries: list = []  # the entries of each call, in order

    def extract(self, source, entry):
        return self._call("extract", source, [entry])

    def extract_many(self, source, entries):
        return self._call("extract_many", source, entries)

    def _call(self, kind, source, entries):
        self.calls.append(f"{kind}({source.source_id})")
        self.entries.append(entries)
        return self.script(kind, source, entries)


class RecordingClock(FakeClock):
    """A fake clock that logs each sleep as ``sleep(<seconds>)``."""

    def __init__(self, calls: list) -> None:
        super().__init__()
        self.calls = calls
        self.slept: list[float] = []

    def sleep(self, seconds):
        self.calls.append(f"sleep({seconds:g})")
        self.slept.append(seconds)
        super().sleep(seconds)


class World:
    """DB_1 with one mirror replica DB_R1; the sources are never
    called — every rule execution is answered by the test's script."""

    def __init__(self, watch_db, script, **config) -> None:
        self.calls: list[str] = []
        self.clock = RecordingClock(self.calls)
        s2s = S2SMiddleware(watch_domain_ontology(),
                            resilience=ResilienceConfig(clock=self.clock,
                                                        **config))
        s2s.register_source(RelationalDataSource("DB_1", watch_db))
        s2s.register_source(RelationalDataSource("DB_R1", watch_db))
        for attribute in ATTRIBUTES:
            rule = ExtractionRule.sql(f"SELECT {attribute[1]} FROM watches")
            s2s.register_attribute(attribute, rule, "DB_1")
            s2s.register_attribute(attribute, rule, "DB_R1",
                                   replica_of="DB_1")
        self.extractor = RecordingExtractor(self.calls, script)
        s2s.register_extractor(self.extractor, replace=True)
        self.manager = s2s.manager

    def run(self, *, deadline=None):
        """Run DB_1's policy once; returns (result, run context)."""
        required = [AttributePath.parse(attribute_id) for attribute_id
                    in self.manager.attributes.attribute_ids()]
        ctx, _ = self.manager._begin_run(required, deadline, None,
                                         span=NULL_SPAN)
        self.entries = ctx.schema.by_source["DB_1"]
        return self.manager._extract_source("DB_1", self.entries, ctx), ctx


def _fragments(kind, source, entries):
    """What a healthy source returns: a batch carries its scan digest."""
    detail = {"scan": 0} if kind == "extract_many" else None
    fragments = [RawFragment(entry.attribute, source.source_id,
                             ["v1", "v2"], detail) for entry in entries]
    return fragments if kind == "extract_many" else fragments[0]


# DB_1 is a RelationalDataSource, which runs batches: the policy asks for
# one (``extract_many``) before its first ``extract``.  A script that
# fails every run fails the batch too — and every count below is what it
# was before batches existed, which is the point: a failed batch is
# dropped uncounted and the per-rule policy runs as if it had never been
# tried.
class TestPolicyByHand:
    def test_budget_exhaustion(self, watch_db):
        def script(kind, source, entries):
            raise TransientSourceError("flap")

        world = World(watch_db, script, failover=False, breaker=None,
                      retry=RetryPolicy(max_attempts=5, base_delay=0.5,
                                        jitter="none", budget=1))
        result, ctx = world.run()
        # The dropped batch, then per entry: attempt, (budgeted) backoff,
        # attempt — then the second entry finds the run's budget already
        # spent.
        assert world.calls == ["extract_many(DB_1)", "extract(DB_1)",
                               "sleep(0.5)", "extract(DB_1)",
                               "extract(DB_1)"]
        assert world.clock.slept == [pytest.approx(0.5)]
        assert len(result.problems) == 2
        assert all("retry budget exhausted" in p.message
                   for p in result.problems)
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.failures, health.retries) == (3, 3, 1)
        assert world.manager.retry_count == 1

    def test_breaker_open_fails_over(self, watch_db):
        def script(kind, source, entries):
            if source.source_id == "DB_1":
                raise TransientSourceError("down")
            return _fragments(kind, source, entries)

        world = World(watch_db, script, retry=RetryPolicy(max_attempts=1),
                      breaker=BreakerPolicy(failure_threshold=1,
                                            cooldown_seconds=60.0))
        result, ctx = world.run()
        # Entry 1 trips the breaker and fails over; entry 2 is refused
        # by the open breaker without a rule ever being run on DB_1.
        assert world.calls == [
            "extract_many(DB_1)", "extract(DB_1)", "extract(DB_R1)",
            "extract(DB_R1)"]  # replicas never batch
        assert not result.problems
        assert [f.source_id for f in result.record_set.fragments] == [
            "DB_1", "DB_1"]  # relabelled onto the primary
        assert ctx.health.for_source("DB_1").failovers == 2
        assert ctx.health.for_source("DB_R1").served_for == 2
        assert world.manager.breakers.get("DB_1").state == "open"

    def test_deadline_expires_during_backoff(self, watch_db):
        def script(kind, source, entries):
            raise TransientSourceError("slow")

        world = World(watch_db, script, failover=False, breaker=None,
                      retry=RetryPolicy(max_attempts=3, base_delay=5.0,
                                        jitter="none"))
        result, ctx = world.run(deadline=1.0)
        assert world.calls == ["extract_many(DB_1)", "extract(DB_1)",
                               "sleep(1)"]
        # clamped to the budget, which the fake sleep then spends
        assert world.clock.slept == [pytest.approx(1.0)]
        assert len(result.problems) == 1
        assert "deadline" in result.problems[0].message
        assert ctx.health.for_source("DB_1").deadline_hits == 1

    def test_error_thrown_in_unwinds_through_finally(self, watch_db):
        def script(kind, source, entries):
            raise KeyboardInterrupt()  # not the policy's to handle

        world = World(watch_db, script)
        with pytest.raises(KeyboardInterrupt):  # not dropped with the batch
            world.run()
        assert world.calls == ["extract_many(DB_1)"]

    def test_policy_calls_every_collaborator(self, watch_db):
        failed_once: set = set()

        def script(kind, source, entries):
            if kind == "extract_many":
                raise TransientSourceError("batch")
            if entries[0].attribute_id not in failed_once:
                failed_once.add(entries[0].attribute_id)
                raise TransientSourceError("first try")
            return _fragments(kind, source, entries)

        world = World(watch_db, script, breaker=None,
                      retry=RetryPolicy(max_attempts=2, base_delay=0.1,
                                        jitter="none"))
        result, _ = world.run()
        assert not result.problems
        assert {call.partition("(")[0] for call in world.calls} == {
            "extract_many", "extract", "sleep"}

    def test_batch_serves_every_entry_under_its_own_bookkeeping(self,
                                                                watch_db):
        world = World(watch_db, _fragments)
        result, ctx = world.run()
        # Taken once, at the first entry's attempt, over both entries.
        assert world.calls == ["extract_many(DB_1)"]
        assert [e.attribute_id for e in world.extractor.entries[0]] == [
            "thing.product.brand", "thing.product.price"]
        assert not result.problems
        assert [f.values for f in result.record_set.fragments] == [
            ["v1", "v2"]] * 2
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.successes, health.failures) == (
            2, 2, 0)

    def test_batch_covers_only_the_entries_still_to_run(self, watch_db):
        def script(kind, source, entries):
            if source.source_id == "DB_R1":
                world.clock.advance(60.0)  # DB_1's cooldown ends meanwhile
            return _fragments(kind, source, entries)

        world = World(watch_db, script, retry=RetryPolicy(max_attempts=1),
                      breaker=BreakerPolicy(failure_threshold=1,
                                            cooldown_seconds=60.0))
        world.manager.breakers.get("DB_1").record_failure()  # open
        result, _ = world.run()
        # The open breaker refuses the first entry, which fails over; the
        # half-open probe is the second: one entry left, nothing to
        # share, so no batch is asked for.
        assert world.calls == ["extract(DB_R1)", "extract(DB_1)"]
        assert [f.values for f in result.record_set.fragments] == [
            ["v1", "v2"]] * 2
        assert world.manager.breakers.get("DB_1").state == "closed"

    def test_a_batch_error_of_any_type_is_dropped(self, watch_db):
        def script(kind, source, entries):
            if kind == "extract_many":
                raise ValueError("not even an S2SError")
            return _fragments(kind, source, entries)

        world = World(watch_db, script)
        result, ctx = world.run()
        assert world.calls == ["extract_many(DB_1)", "extract(DB_1)",
                               "extract(DB_1)"]
        assert not result.problems
        health = ctx.health.for_source("DB_1")
        assert (health.attempts, health.successes, health.failures) == (
            2, 2, 0)
        assert world.manager.breakers.get("DB_1").state == "closed"
