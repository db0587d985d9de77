"""Interleaved fleets end to end: concurrency, chaos, sharing, the wire.

The unit scheduler suite (``tests/core/test_fleet_scheduler``) drives
scripted extractions; this file runs *real worlds* through the
interleaving coordinator: two genuinely concurrent queries surviving a
worker kill with entity-for-entity correct answers, one shared fleet
serving several tenants' middlewares, the STATUS fleet block over the
wire, and fleet-quota pushback arriving at the client as the same
:class:`ServerBusyError` the server's own admission control produces.
"""

from __future__ import annotations

import threading

import pytest

from repro.clock import FakeClock, SystemClock
from repro.config import ConcurrencyConfig, FleetConfig, ResilienceConfig
from repro.core.cluster import QueryShardCoordinator
from repro.core.resilience import RetryPolicy
from repro.errors import FleetQuotaExceeded
from repro.obs import MetricsRegistry
from repro.server import (S2SClient, S2SServer, ServerBusyError,
                          ServerThread, Tenant, TenantRegistry)
from repro.sources.flaky import FlakySource, WorkerCrashed
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import result_key


def chaos_world(fail_plan, *, workers=2):
    """A sharded world where one source's extraction kills its worker
    (same construction as the equivalence suite's chaos worlds)."""
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
    return s2s, metrics


class TestConcurrentChaos:
    def test_two_concurrent_queries_survive_a_worker_kill(self):
        """The satellite bar: two queries share a 2-worker fleet, one
        worker dies mid-flight, and *both* queries come back
        entity-for-entity equal to a never-failed serial run."""
        reference = B2BScenario(n_sources=4, n_products=16,
                                seed=7).build_middleware()
        with reference:
            expected = result_key(reference.query("SELECT product"))
        s2s, metrics = chaos_world(fail_plan=[True])
        boxes: list[dict] = [{}, {}]

        def run(box):
            try:
                box["result"] = s2s.query("SELECT product")
            except Exception as exc:
                box["error"] = exc

        with s2s:
            threads = [threading.Thread(target=run, args=(box,))
                       for box in boxes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            for box in boxes:
                assert "result" in box, box.get("error")
                assert result_key(box["result"]) == expected
            assert metrics.counter("worker_restarts_total").total() >= 1


class TestSharedFleet:
    def _shared_pair(self, fleet_config: FleetConfig):
        shared = QueryShardCoordinator(clock=SystemClock(),
                                       fleet=fleet_config,
                                       metrics=MetricsRegistry())
        worlds = {}
        for name, seed in (("acme", 7), ("globex", 11)):
            scenario = B2BScenario(n_sources=3, n_products=8, seed=seed)
            s2s = scenario.build_middleware(
                concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
            s2s.attach_fleet(shared, tenant=name)
            worlds[name] = (scenario, s2s)
        return shared, worlds

    def test_one_fleet_answers_every_tenant(self):
        shared, worlds = self._shared_pair(FleetConfig(n_workers=2))
        try:
            for name, (scenario, s2s) in worlds.items():
                assert s2s.manager.fleet is shared
                with scenario.build_middleware() as twin:
                    assert result_key(s2s.query("SELECT product")) == \
                        result_key(twin.query("SELECT product"))
            snap = shared.snapshot()
            assert snap["shared"] is True
            assert snap["tenants"] == ["acme", "globex"]
            # Tenant middlewares closing must not kill the shared fleet.
            for _scenario, s2s in worlds.values():
                s2s.close()
            assert shared.started
        finally:
            shared.shutdown()
        assert not shared.started

    def test_binding_survives_a_mapping_reload(self):
        shared, worlds = self._shared_pair(FleetConfig(n_workers=2))
        try:
            scenario, s2s = worlds["acme"]
            before = result_key(s2s.query("SELECT product"))
            by_id = {org.source_id: org for org in scenario.organizations}
            s2s.load_mapping(s2s.dump_mapping(),
                             lambda sid, info: scenario.connector(by_id[sid]))
            assert s2s.manager.fleet is shared  # re-attached, not forked
            assert result_key(s2s.query("SELECT product")) == before
        finally:
            for _scenario, s2s in worlds.values():
                s2s.close()
            shared.shutdown()


@pytest.fixture()
def fleet_server():
    """A live server whose two tenants share one 2-worker fleet."""
    fleet_config = FleetConfig(n_workers=2, tenant_quota=4)
    shared = QueryShardCoordinator(clock=SystemClock(), fleet=fleet_config,
                                   metrics=MetricsRegistry())
    registry = TenantRegistry()
    for name, seed in (("acme", 7), ("globex", 11)):
        s2s = B2BScenario(n_sources=3, n_products=8,
                          seed=seed).build_middleware(
            concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
        s2s.attach_fleet(shared, tenant=name)
        registry.add(Tenant(name, s2s, owned=True))
    thread = ServerThread(S2SServer(registry))
    host, port = thread.start()
    yield {"host": host, "port": port, "registry": registry}
    thread.stop()
    shared.shutdown()


class TestFleetOverTheWire:
    def test_status_reply_carries_the_fleet_block(self, fleet_server):
        with S2SClient(fleet_server["host"], fleet_server["port"],
                       tenant="acme") as client:
            client.query("SELECT product")
            status = client.status()
        engine = status["middleware"]["engine"]
        assert engine["mode"] == "sharded"
        fleet = engine["fleet"]
        assert fleet["shared"] is True
        assert fleet["tenants"] == ["acme", "globex"]
        assert fleet["workers"] == 2
        assert fleet["tenant_quota"] == 4
        assert "ready_queue_depth" in fleet

    def test_quota_rejection_becomes_retry_after(self, fleet_server):
        tenant = fleet_server["registry"].tenants["acme"]

        def refuse(*_args, **_kwargs):
            raise FleetQuotaExceeded("tenant 'acme' is at its in-flight "
                                     "shard quota (4)", tenant="acme",
                                     scope="tenant", retry_after=0.25)

        original = tenant.middleware.query
        tenant.middleware.query = refuse
        try:
            with S2SClient(fleet_server["host"], fleet_server["port"],
                           tenant="acme") as client:
                with pytest.raises(ServerBusyError) as info:
                    client.query("SELECT product")
            assert info.value.retry_after == pytest.approx(0.25)
        finally:
            tenant.middleware.query = original
