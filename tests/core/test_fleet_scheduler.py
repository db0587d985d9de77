"""The interleaving fleet scheduler and the FleetConfig API.

Unit-level coverage for what ``tests/integration/test_sharded_equivalence``
cannot see: two queries genuinely *overlapping* on one fleet, fair-share
dispatch under per-tenant quotas, admission pushback
(:class:`~repro.errors.FleetQuotaExceeded`), the shutdown/execute race,
and the ``FleetConfig`` knob object with its deprecation shims.

Scheduler tests drive a real coordinator (real dispatcher thread, real
worker pool) but script the *extraction* side: worker contexts carry a
pre-built manager whose ``extract`` follows a per-source script — block
on a gate, die like a killed process, or answer immediately — so every
interleaving is reproducible without real worlds or real sleeps beyond
the gates themselves.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.clock import FakeClock
from repro.config import ConcurrencyConfig, FleetConfig
from repro.core.cluster import (QueryShardCoordinator, QueryWorkerContext,
                                shard_of)
from repro.core.extractor.schema import ExtractionSchema
from repro.core.resilience import Deadline
from repro.errors import FleetQuotaExceeded, S2SError
from repro.obs import MetricsRegistry
from repro.obs.trace import Span
from repro.sources.flaky import WorkerCrashed

#: Gate tests block workers for real milliseconds while the dispatcher
#: spins fake time forward; a huge heartbeat timeout keeps the
#: supervisor from mistaking a gated worker for a dead one.
PATIENT = {"heartbeat_timeout": 1e6}


def wait_until(predicate, timeout: float = 5.0) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _ScriptedManager:
    """An extraction engine whose behaviour is a per-source script."""

    def __init__(self, script: dict | None = None) -> None:
        self.script = script or {}
        self.calls: list[list[str]] = []
        self._lock = threading.Lock()

    def extract(self, required, *, schema=None, deadline=None):
        sources = schema.source_ids()
        with self._lock:
            self.calls.append(sources)
        for source_id in sources:
            action = self.script.get(source_id)
            if action is not None:
                action()
        return {"sources": sources}


def make_coordinator(fleet: FleetConfig, *, tenants=("default",),
                     scripts: dict | None = None,
                     metrics: MetricsRegistry | None = None):
    """A coordinator over scripted managers, one per tenant."""
    clock = FakeClock()
    coordinator = QueryShardCoordinator(clock=clock, fleet=fleet,
                                        metrics=metrics)
    managers = {}
    for name in tenants:
        manager = _ScriptedManager((scripts or {}).get(name))
        managers[name] = manager

        def factory(manager=manager):
            return QueryWorkerContext(attributes=None, sources=None,
                                      resilience=None, manager=manager)

        coordinator.register_tenant(name, factory)
    return coordinator, managers, clock


def spread_sources(count: int, n_workers: int,
                   prefix: str = "src") -> list[str]:
    """``count`` source ids guaranteed to land on distinct shards, so a
    query fans out into exactly ``count`` work items."""
    chosen: list[str] = []
    taken: set[int] = set()
    index = 0
    while len(chosen) < count:
        candidate = f"{prefix}{index}"
        index += 1
        shard = shard_of(candidate, n_workers)
        if shard not in taken:
            taken.add(shard)
            chosen.append(candidate)
    return chosen


def schema_for(*source_ids: str) -> ExtractionSchema:
    return ExtractionSchema(requested=[],
                            by_source={sid: [] for sid in source_ids},
                            replicas={})


def submit(coordinator, schema, *, clock, tenant="default", span=None):
    """Run one execute() on a thread; returns (thread, result box)."""
    box: dict = {}

    def run():
        try:
            kwargs = {"deadline": Deadline(None, clock), "tenant": tenant}
            if span is not None:
                kwargs["span"] = span
            box["result"] = coordinator.execute(schema, **kwargs)
        except Exception as exc:  # surfaced by the asserting test
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestFleetConfig:
    def test_collects_every_knob(self):
        config = FleetConfig(n_workers=4, pool="spawn",
                             heartbeat_timeout=5.0, max_worker_restarts=1,
                             max_inflight_requests=8, tenant_quota=2)
        assert (config.n_workers, config.pool) == (4, "spawn")
        assert config.tenant_quota == 2

    @pytest.mark.parametrize("bad", [
        {"n_workers": 0}, {"pool": "fork"}, {"heartbeat_timeout": 0.0},
        {"max_worker_restarts": -1},
        {"max_inflight_requests": 0}, {"tenant_quota": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FleetConfig(**bad)

    def test_sharded_accepts_a_fleet(self):
        fleet = FleetConfig(n_workers=5, pool="spawn", tenant_quota=3)
        config = ConcurrencyConfig.sharded(fleet=fleet)
        assert config.fleet_config() is fleet

    def test_sharded_rejects_mixing_spellings(self):
        with pytest.raises(ValueError, match="not both"):
            ConcurrencyConfig.sharded(2, fleet=FleetConfig())

    def test_shorthand_derives_a_fleet(self):
        config = ConcurrencyConfig.sharded(3, pool="spawn")
        derived = config.fleet_config()
        assert (derived.n_workers, derived.pool) == (3, "spawn")


class TestInterleaving:
    def test_second_query_completes_while_first_is_blocked(self):
        """The tentpole behaviour: with one worker wedged on query A,
        query B is admitted, dispatched to the free worker and answered
        — PR 9's coordinator would have queued B behind A."""
        gate = threading.Event()
        coordinator, managers, clock = make_coordinator(
            FleetConfig(n_workers=2, **PATIENT),
            scripts={"default": {"slow": gate.wait}})
        root = Span("root", clock, threading.Lock())
        try:
            thread_a, box_a = submit(coordinator, schema_for("slow"),
                                     clock=clock, span=root)
            manager = managers["default"]
            assert wait_until(lambda: manager.calls)  # A is on a worker
            thread_b, box_b = submit(coordinator, schema_for("quick"),
                                     clock=clock)
            thread_b.join(timeout=5.0)
            assert "result" in box_b, box_b.get("error")
            assert thread_a.is_alive()  # A still wedged the whole time
            assert list(box_b["result"].partials.values()) == \
                [{"sources": ["quick"]}]
        finally:
            gate.set()
        thread_a.join(timeout=5.0)
        assert box_a["result"].partials
        # A saw B arrive while it was in flight.
        interleave = root.find("shard.interleave")
        assert interleave is not None
        assert interleave.attributes["peak_inflight"] == 2
        assert interleave.find("shard.enqueue") is not None
        coordinator.shutdown()

    def test_worker_death_redispatches_only_its_item(self):
        """One scripted kill: the dead worker's item is re-dispatched
        and the query still gets every source's answer."""
        fired = []

        def die_once():
            if not fired:
                fired.append(True)
                raise WorkerCrashed("scripted kill")

        metrics = MetricsRegistry()
        coordinator, _managers, clock = make_coordinator(
            FleetConfig(n_workers=2), metrics=metrics,
            scripts={"default": {"doomed": die_once}})
        result = coordinator.execute(schema_for("doomed", "other"),
                                     deadline=Deadline(None, clock))
        assert not result.failures and not result.timed_out
        harvested = sorted(sid for partial in result.partials.values()
                           for sid in partial["sources"])
        assert harvested == ["doomed", "other"]
        assert result.redispatches >= 1
        assert metrics.counter("worker_restarts_total").total() >= 1
        coordinator.shutdown()


class TestTenantQuotas:
    def _blocked_greedy(self, gate, *, quota=1):
        greedy_sources = spread_sources(2, 2, prefix="g")
        metrics = MetricsRegistry()
        coordinator, managers, clock = make_coordinator(
            FleetConfig(n_workers=2, tenant_quota=quota, **PATIENT),
            tenants=("greedy", "modest"), metrics=metrics,
            scripts={"greedy": {sid: gate.wait for sid in greedy_sources}})
        return coordinator, managers, clock, metrics, greedy_sources

    def test_greedy_tenant_cannot_starve_another(self):
        """Quota 1 on a 2-worker fleet: greedy's two items may occupy
        only one worker, so modest's query runs on the other even while
        greedy has queued backlog."""
        gate = threading.Event()
        coordinator, managers, clock, _, greedy_sources = \
            self._blocked_greedy(gate)
        try:
            greedy_thread, greedy_box = submit(
                coordinator, schema_for(*greedy_sources), clock=clock,
                tenant="greedy")
            assert wait_until(lambda: managers["greedy"].calls)
            snap = coordinator.snapshot()
            assert snap["ready_queue_depth"] >= 1  # backlog held at quota
            modest_thread, modest_box = submit(
                coordinator, schema_for("m0"), clock=clock,
                tenant="modest")
            modest_thread.join(timeout=5.0)
            assert "result" in modest_box, modest_box.get("error")
            assert greedy_thread.is_alive()
            # Greedy never held more than its quota of workers.
            assert len(managers["greedy"].calls) == 1
        finally:
            gate.set()
        greedy_thread.join(timeout=5.0)
        assert len(greedy_box["result"].partials) == 2
        coordinator.shutdown()

    def test_over_quota_admission_gets_pushback(self):
        gate = threading.Event()
        coordinator, managers, clock, metrics, greedy_sources = \
            self._blocked_greedy(gate)
        try:
            thread, box = submit(coordinator,
                                 schema_for(greedy_sources[0]),
                                 clock=clock, tenant="greedy")
            assert wait_until(lambda: managers["greedy"].calls)
            with pytest.raises(FleetQuotaExceeded, match="quota") as info:
                coordinator.execute(schema_for(greedy_sources[1]),
                                    deadline=Deadline(None, clock),
                                    tenant="greedy")
            assert info.value.tenant == "greedy"
            assert info.value.scope == "tenant"
            assert metrics.counter("fleet_quota_rejections_total").value(
                tenant="greedy", scope="tenant") == 1
            # The other tenant is unaffected by greedy's quota state.
            ok = coordinator.execute(schema_for("m0"),
                                     deadline=Deadline(None, clock),
                                     tenant="modest")
            assert ok.partials
        finally:
            gate.set()
        thread.join(timeout=5.0)
        assert "result" in box
        coordinator.shutdown()

    def test_fleet_wide_inflight_cap(self):
        gate = threading.Event()
        metrics = MetricsRegistry()
        coordinator, managers, clock = make_coordinator(
            FleetConfig(n_workers=2, max_inflight_requests=1, **PATIENT),
            metrics=metrics, scripts={"default": {"slow": gate.wait}})
        try:
            thread, box = submit(coordinator, schema_for("slow"),
                                 clock=clock)
            assert wait_until(lambda: managers["default"].calls)
            with pytest.raises(FleetQuotaExceeded) as info:
                coordinator.execute(schema_for("quick"),
                                    deadline=Deadline(None, clock))
            assert info.value.scope == "fleet"
        finally:
            gate.set()
        thread.join(timeout=5.0)
        # The cap is on *concurrent* requests: sequential ones are fine.
        again = coordinator.execute(schema_for("quick"),
                                    deadline=Deadline(None, clock))
        assert again.partials
        coordinator.shutdown()

    def test_unknown_tenant_rejected(self):
        coordinator, _managers, clock = make_coordinator(FleetConfig())
        with pytest.raises(S2SError, match="not registered"):
            coordinator.execute(schema_for("x"),
                                deadline=Deadline(None, clock),
                                tenant="stranger")
        coordinator.shutdown()


class TestShutdownRace:
    def test_shutdown_waits_for_draining_requests(self):
        """The satellite fix: shutdown must not tear the pool out from
        under an in-flight execute — it drains first."""
        gate = threading.Event()
        coordinator, managers, clock = make_coordinator(
            FleetConfig(n_workers=2, **PATIENT),
            scripts={"default": {"slow": gate.wait}})
        thread, box = submit(coordinator, schema_for("slow"), clock=clock)
        assert wait_until(lambda: managers["default"].calls)
        closer = threading.Thread(target=coordinator.shutdown, daemon=True)
        closer.start()
        assert wait_until(lambda: coordinator._draining)
        # New work is refused while the fleet drains...
        with pytest.raises(S2SError, match="shutting down"):
            coordinator.execute(schema_for("late"),
                                deadline=Deadline(None, clock))
        # ...but the in-flight request completes, un-degraded.
        assert thread.is_alive()
        gate.set()
        thread.join(timeout=5.0)
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert "result" in box, box.get("error")
        assert not box["result"].failures
        assert not coordinator.started

    def test_cancelling_shutdown_degrades_instead_of_wedging(self):
        gate = threading.Event()
        coordinator, managers, clock = make_coordinator(
            FleetConfig(n_workers=2, **PATIENT),
            scripts={"default": {"slow": gate.wait}})
        thread, box = submit(coordinator, schema_for("slow", "quick"),
                             clock=clock)
        assert wait_until(lambda: managers["default"].calls)
        coordinator.shutdown(cancel=True)
        gate.set()  # free the wedged worker thread after the fact
        thread.join(timeout=5.0)
        assert "result" in box, box.get("error")
        result = box["result"]
        assert result.failures  # degraded, but every waiter woke
        assert all("shut down" in message
                   for message in result.failures.values())
        assert not coordinator.started


class TestSnapshot:
    def test_snapshot_shape(self):
        coordinator, _managers, clock = make_coordinator(
            FleetConfig(n_workers=2, tenant_quota=4),
            tenants=("alpha", "beta"))
        snap = coordinator.snapshot()
        assert snap["workers"] == 2 and snap["pool"] == "thread"
        assert snap["shared"] is True
        assert snap["tenants"] == ["alpha", "beta"]
        assert snap["tenant_quota"] == 4
        assert snap["inflight_requests"] == 0
        assert not snap["started"]
        coordinator.execute(schema_for("a"),
                            deadline=Deadline(None, clock),
                            tenant="alpha")
        assert coordinator.snapshot()["started"]
        coordinator.shutdown()
