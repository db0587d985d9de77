"""Units for the shared fleet substrate (``repro.core.cluster``).

Shard routing, sub-schema slicing, the extracted worker supervisor,
partial-outcome merging, the sharded concurrency config and fleet
lifecycle (lazy start, rebuild on source mutation).  Integration-level equivalence lives in
``tests/integration/test_sharded_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.clock import FakeClock
from repro.config import ConcurrencyConfig
from repro.core.cluster import (FleetConfig, QueryShardCoordinator,
                                QueryWorkerContext, ShardRunResult,
                                SupervisionVerdict, WorkerSupervisor,
                                default_restart_policy, merge_partials,
                                partition_sources, query_worker_loop,
                                shard_of)
from repro.core.cluster.coordinator import QueryWorkItem
from repro.core.extractor.manager import ExtractionOutcome, ExtractionProblem
from repro.core.extractor.records import SourceRecordSet
from repro.core.extractor.schema import ExtractionSchema
from repro.core.mapping.datasources import DataSourceRepository
from repro.core.resilience import Deadline, SourceHealth
from repro.obs import MetricsRegistry
from repro.sources.base import DataSource


class _StubSource(DataSource):
    source_type = "stub"

    def execute_rule(self, rule: str) -> list[str]:
        return []

    def connection_info(self):
        from repro.sources.base import ConnectionInfo
        return ConnectionInfo(self.source_type, {"id": self.source_id})


class TestSharding:
    def test_partition_covers_every_source_exactly_once(self):
        ids = [f"source_{i}" for i in range(17)]
        shard_map = partition_sources(ids, 4)
        flat = [sid for shard in shard_map.values() for sid in shard]
        assert sorted(flat) == sorted(ids)
        assert all(0 <= shard < 4 for shard in shard_map)

    def test_partition_is_stable_and_matches_shard_of(self):
        ids = [f"source_{i}" for i in range(10)]
        shard_map = partition_sources(ids, 3)
        assert shard_map == partition_sources(ids, 3)
        for shard, members in shard_map.items():
            assert all(shard_of(sid, 3) == shard for sid in members)

    def test_partition_preserves_caller_order_within_a_shard(self):
        ids = [f"source_{i}" for i in range(12)]
        for members in partition_sources(ids, 2).values():
            assert members == sorted(members, key=ids.index)

    def test_partition_omits_empty_shards(self):
        shard_map = partition_sources(["only_one"], 8)
        assert len(shard_map) == 1

    def test_single_worker_gets_everything(self):
        ids = [f"source_{i}" for i in range(5)]
        assert partition_sources(ids, 1) == {0: ids}

    def test_ingest_jobs_still_export_shard_of(self):
        from repro.core.ingest.jobs import shard_of as ingest_shard_of
        assert ingest_shard_of is shard_of


class TestSubschema:
    def _schema(self):
        return ExtractionSchema(
            requested=["Product.brand", "Product.price"],
            by_source={"a": ["entry_a"], "b": ["entry_b1", "entry_b2"],
                       "c": ["entry_c"]},
            missing=["Product.ghost"],
            replicas={("Product.brand", "a"): ["replica_a"],
                      ("Product.brand", "c"): ["replica_c"]})

    def test_slices_by_source_and_keeps_requested(self):
        sub = self._schema().restricted_to(["a", "b"])
        assert sorted(sub.by_source) == ["a", "b"]
        assert sub.by_source["b"] == ["entry_b1", "entry_b2"]
        assert sub.requested == ["Product.brand", "Product.price"]

    def test_replicas_follow_their_primary(self):
        sub = self._schema().restricted_to(["a", "b"])
        assert list(sub.replicas) == [("Product.brand", "a")]
        other = self._schema().restricted_to(["c"])
        assert list(other.replicas) == [("Product.brand", "c")]

    def test_missing_left_to_the_coordinator(self):
        # Unmapped attributes are a whole-plan fact: every slice names
        # them, and the merged outcome carries them once (the
        # coordinator's own), not once per shard.
        assert self._schema().restricted_to(["a"]).missing == [
            "Product.ghost"]
        partial = _partial("a")
        partial.missing_attributes = ["Product.ghost"]
        merged = merge_partials(
            ExtractionOutcome(missing_attributes=["Product.ghost"]),
            ShardRunResult(partials={0: partial, 1: _partial("b")},
                           failures={}, timed_out=set(), items={}),
            Deadline(None, FakeClock()))
        assert merged.missing_attributes == ["Product.ghost"]

    def test_slices_are_copies(self):
        schema = self._schema()
        sub = schema.restricted_to(["b"])
        sub.by_source["b"].append("mutated")
        assert schema.by_source["b"] == ["entry_b1", "entry_b2"]


class _ScriptedPool:
    """A fake WorkerPool whose liveness the test scripts directly."""

    def __init__(self, n_workers: int = 2):
        self.n_workers = n_workers
        self.living = {shard: True for shard in range(n_workers)}
        self.restarted: list[int] = []

    def start(self) -> None: ...

    def submit(self, shard, item) -> None: ...

    def events(self, timeout):
        return []

    def alive(self, shard: int) -> bool:
        return self.living[shard]

    def restart(self, shard: int) -> None:
        self.restarted.append(shard)
        self.living[shard] = True

    def shutdown(self) -> None: ...


class TestWorkerSupervisor:
    def _supervisor(self, clock, **kwargs):
        kwargs.setdefault("heartbeat_timeout", 5.0)
        supervisor = WorkerSupervisor(clock, **kwargs)
        supervisor.reset(range(2))
        return supervisor

    def test_healthy_fleet_yields_empty_verdict(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock)
        verdict = supervisor.supervise(_ScriptedPool(), busy={0, 1},
                                       relevant={0, 1})
        assert verdict == SupervisionVerdict()

    def test_death_schedules_backoff_then_restarts(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        supervisor = self._supervisor(clock, metrics=metrics)
        pool = _ScriptedPool()
        pool.living[1] = False
        verdict = supervisor.supervise(pool, busy={0, 1}, relevant={0, 1})
        assert verdict.deaths == [1] and not verdict.restarted
        assert pool.restarted == []  # scheduled, not yet performed
        assert metrics.counter("worker_restarts_total").total() == 1
        clock.advance(2.0)  # past any backoff the policy can produce
        pool.living[1] = True  # a real pool's restart makes it live again
        verdict = supervisor.supervise(pool, busy={0, 1}, relevant={0, 1})
        assert verdict.restarted == [1] and pool.restarted == [1]

    def test_silence_counts_as_death_only_when_busy(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock)
        pool = _ScriptedPool()
        clock.advance(60.0)  # far past the heartbeat timeout
        idle = supervisor.supervise(pool, busy=set(), relevant={0, 1})
        assert idle == SupervisionVerdict()
        silent = supervisor.supervise(pool, busy={0}, relevant={0, 1})
        assert silent.deaths == [0]

    def test_beat_defers_silence_detection(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock)
        pool = _ScriptedPool()
        clock.advance(4.0)
        supervisor.beat(0)
        clock.advance(4.0)  # 8s since reset, 4s since the beat
        verdict = supervisor.supervise(pool, busy={0}, relevant={0})
        assert verdict == SupervisionVerdict()

    def test_restart_budget_exhaustion_aborts(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock, max_restarts=2)
        pool = _ScriptedPool()
        for _ in range(2):
            pool.living[0] = False
            verdict = supervisor.supervise(pool, busy={0}, relevant={0})
            assert verdict.deaths == [0]
            clock.advance(2.0)
            pool.living[0] = True
            assert supervisor.supervise(pool, busy={0},
                                        relevant={0}).restarted == [0]
        pool.living[0] = False
        verdict = supervisor.supervise(pool, busy={0}, relevant={0})
        assert verdict.aborted == 0

    def test_irrelevant_dead_worker_is_ignored(self):
        # A dead-but-idle worker outside the run must not burn the
        # restart budget while other shards drain.
        clock = FakeClock()
        supervisor = self._supervisor(clock)
        pool = _ScriptedPool()
        pool.living[1] = False
        verdict = supervisor.supervise(pool, busy={0}, relevant={0})
        assert verdict == SupervisionVerdict()
        assert supervisor.restarts == {}

    def test_reset_reclaims_the_budget(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock, max_restarts=1)
        pool = _ScriptedPool()
        pool.living[0] = False
        supervisor.supervise(pool, busy={0}, relevant={0})
        assert supervisor.total_restarts == 1
        supervisor.reset(range(2))
        assert supervisor.total_restarts == 0
        assert supervisor.restart_at == {}

    def test_default_restart_policy_backs_off_within_bounds(self):
        policy = default_restart_policy(3)
        rng = policy.make_rng()
        delays = [policy.delay_for(attempt, rng) for attempt in (1, 2, 3)]
        assert all(0.0 < delay <= 1.0 for delay in delays)


def _partial(source_id, *, failures=0, retries=0):
    health = SourceHealth(source_id)
    health.successes = 1
    health.failures = failures
    health.retries = retries
    return ExtractionOutcome(
        record_sets={source_id: SourceRecordSet(source_id)},
        per_source_seconds={source_id: 0.01},
        health={source_id: health})


class TestMergePartials:
    def _run(self, partials, *, failures=None, timed_out=None, items=None):
        return ShardRunResult(partials=partials, failures=failures or {},
                              timed_out=timed_out or set(),
                              items=items or {})

    def test_merges_in_global_source_order(self):
        run = self._run({1: _partial("zulu"), 0: _partial("alpha")})
        outcome = merge_partials(ExtractionOutcome(), run,
                                 Deadline(None, FakeClock()))
        assert list(outcome.record_sets) == ["alpha", "zulu"]
        assert list(outcome.per_source_seconds) == ["alpha", "zulu"]
        assert list(outcome.health) == ["alpha", "zulu"]

    def test_replica_health_sums_across_shards(self):
        # The same replica can serve two shards' primaries; its ledger
        # must sum, not last-write-win.
        left = _partial("primary_a")
        left.health["replica"] = SourceHealth("replica")
        left.health["replica"].successes = 2
        right = _partial("primary_b")
        right.health["replica"] = SourceHealth("replica")
        right.health["replica"].successes = 3
        outcome = merge_partials(ExtractionOutcome(),
                                 self._run({0: left, 1: right}),
                                 Deadline(None, FakeClock()))
        assert outcome.health["replica"].successes == 5

    def test_timed_out_shard_reports_deadline_problems(self):
        items = {1: QueryWorkItem("q1", 1, ["slow_a", "slow_b"],
                                  ExtractionSchema(requested=[]))}
        run = self._run({0: _partial("fast")}, timed_out={1}, items=items)
        outcome = merge_partials(ExtractionOutcome(), run,
                                 Deadline(0.25, FakeClock()))
        messages = [problem.message for problem in outcome.problems]
        assert all("0.250s extraction deadline" in m for m in messages)
        assert outcome.health["slow_a"].deadline_hits == 1
        assert outcome.per_source_seconds["slow_a"] == 0.25

    def test_lost_shard_degrades_its_sources(self):
        items = {1: QueryWorkItem("q1", 1, ["lost"],
                                  ExtractionSchema(requested=[]))}
        run = self._run({0: _partial("fine")},
                        failures={1: "worker shard 1 exceeded its restart "
                                     "budget (3)"},
                        items=items)
        outcome = merge_partials(ExtractionOutcome(), run,
                                 Deadline(None, FakeClock()))
        assert [p.source_id for p in outcome.problems] == ["lost"]
        assert "shard worker lost" in outcome.problems[0].message
        assert "restart budget" in outcome.health["lost"].last_error

    def test_problems_sorted_by_source(self):
        left = _partial("bravo")
        left.problems = [ExtractionProblem("bravo", None, "b broke")]
        right = _partial("alpha")
        right.problems = [ExtractionProblem("alpha", None, "a broke")]
        outcome = merge_partials(ExtractionOutcome(),
                                 self._run({0: left, 1: right}),
                                 Deadline(None, FakeClock()))
        assert [p.source_id for p in outcome.problems] == ["alpha", "bravo"]


class TestShardedConcurrencyConfig:
    def test_sharded_classmethod(self):
        config = ConcurrencyConfig.sharded(4, pool="spawn")
        fleet = config.fleet_config()
        assert (config.mode, fleet.n_workers, fleet.pool) == \
            ("sharded", 4, "spawn")
        assert config.parallel

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ConcurrencyConfig.sharded(0)

    def test_pool_kind_is_validated(self):
        with pytest.raises(ValueError, match="pool"):
            ConcurrencyConfig.sharded(2, pool="fork")

    def test_other_modes_ignore_but_accept_fleet_knobs(self):
        config = ConcurrencyConfig(mode="thread",
                                   fleet=FleetConfig(n_workers=3))
        assert config.mode == "thread"
        # Without an explicit fleet the sharded engine gets the default.
        assert ConcurrencyConfig(mode="sharded").fleet_config() == \
            FleetConfig()


class TestFleetLifecycle:
    def _coordinator(self, repository, clock, **kwargs):
        def context():
            return QueryWorkerContext(attributes=None, sources=repository,
                                      resilience=None)
        return QueryShardCoordinator(
            fleet=FleetConfig(n_workers=2), clock=clock,
            context_factory=context,
            source_version=lambda: repository.version, **kwargs)

    def test_lazy_start_and_idempotent_shutdown(self):
        clock = FakeClock()
        coordinator = self._coordinator(DataSourceRepository(), clock)
        assert not coordinator.started
        coordinator.ensure_started()
        assert coordinator.started
        coordinator.shutdown()
        coordinator.shutdown()
        assert not coordinator.started

    def test_source_mutation_rebuilds_the_fleet(self):
        clock = FakeClock()
        repository = DataSourceRepository()
        coordinator = self._coordinator(repository, clock)
        coordinator.ensure_started()
        first = coordinator._pool
        coordinator.ensure_started()
        assert coordinator._pool is first  # no mutation, no rebuild
        repository.register(_StubSource("late_arrival"))
        coordinator.ensure_started()
        assert coordinator._pool is not first
        coordinator.shutdown()

    def test_invalid_pool_kind_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            QueryShardCoordinator(fleet=FleetConfig(pool="fork"),
                                  clock=FakeClock(),
                                  context_factory=lambda: None)


class TestRepositoryVersion:
    def test_register_and_replace_move_the_version(self):
        repository = DataSourceRepository()
        assert repository.version == 0
        repository.register(_StubSource("a"))
        assert repository.version == 1
        repository.register(_StubSource("a"),
                            replace=True)
        assert repository.version == 2


class TestQueryWorkerContext:
    def test_unpicklable_collaborators_dropped_on_pickle(self):
        import pickle

        ctx = QueryWorkerContext(attributes=None,
                                 sources=DataSourceRepository(),
                                 resilience=None,
                                 extractors=object(),  # not picklable
                                 breakers=object())
        state = ctx.__getstate__()
        assert state["extractors"] is None
        assert state["breakers"] is None
        clone = pickle.loads(pickle.dumps(
            QueryWorkerContext(attributes=None,
                               sources=DataSourceRepository(),
                               resilience=None)))
        assert clone.extractors is None

    def test_query_worker_loop_exits_on_sentinel(self):
        import queue

        inbox: "queue.Queue" = queue.Queue()
        inbox.put(None)
        query_worker_loop(0, inbox, queue.Queue(),
                          QueryWorkerContext(attributes=None, sources=None,
                                             resilience=None))
