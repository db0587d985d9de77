"""The spawn-boundary pickling contract, source type by source type.

Subprocess fleet workers (ingest and sharded query alike) receive
pickled replicas of the source repository and pickled work items, and
send pickled partial outcomes back.  Every connector the demo worlds
can register — each source technology, the failover mirror replicas,
the fault-injection wrappers — must round-trip through pickle and then
*extract identically*, or a spawn fleet silently diverges from
in-process execution.
"""

from __future__ import annotations

import pickle

import pytest

from repro.clock import FakeClock
from repro.core.cluster import QueryWorkItem, QueryWorkerContext
from repro.core.extractor.extractors import ExtractorRegistry
from repro.core.extractor.schema import ExtractionSchema
from repro.core.mapping.rules import TransformRegistry
from repro.core.store.snapshot import fingerprint_source
from repro.obs import MetricsRegistry
from repro.sources.flaky import (FlakySource, KillableWorker, WorkerFault,
                                 WorkerCrashed)
from repro.workloads import B2BScenario
from repro.workloads.b2b import SOURCE_TYPES


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def extracted_values(s2s, source):
    """Every mapped attribute's raw column from ``source`` — the exact
    call shape a spawned worker performs on its replica."""
    registry = ExtractorRegistry(TransformRegistry())
    extractor = registry.for_source(source)
    source.connect()
    return {entry.attribute_id: extractor.extract(source, entry).values
            for entry in
            s2s.attribute_repository.entries_for_source(source.source_id)}


def single_type_world(source_type: str):
    scenario = B2BScenario(n_sources=2, n_products=12,
                           source_mix=(source_type,), seed=7)
    return scenario, scenario.build_middleware(metrics=MetricsRegistry())


class TestConnectorRoundTrips:
    @pytest.mark.parametrize("source_type", SOURCE_TYPES)
    def test_every_connector_type_survives_pickle(self, source_type):
        _scenario, s2s = single_type_world(source_type)
        for source_id in s2s.source_repository.ids():
            source = s2s.source_repository.get(source_id)
            clone = roundtrip(source)
            assert type(clone) is type(source)
            assert clone.source_id == source_id
            assert clone.source_type == source.source_type

    @pytest.mark.parametrize("source_type", SOURCE_TYPES)
    def test_clone_extracts_identically(self, source_type):
        _scenario, s2s = single_type_world(source_type)
        for source_id in s2s.source_repository.ids():
            source = s2s.source_repository.get(source_id)
            expected = extracted_values(s2s, source)
            assert expected, f"no mapped entries for {source_id}"
            assert extracted_values(s2s, roundtrip(source)) == expected

    @pytest.mark.parametrize("source_type", SOURCE_TYPES)
    def test_clone_keeps_its_content_fingerprint(self, source_type):
        _scenario, s2s = single_type_world(source_type)
        for source_id in s2s.source_repository.ids():
            source = s2s.source_repository.get(source_id)
            assert fingerprint_source(roundtrip(source)) == \
                fingerprint_source(source)

    def test_whole_repository_round_trips(self):
        scenario = B2BScenario(n_sources=4, n_products=10, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        clone = roundtrip(s2s.source_repository)
        assert clone.ids() == s2s.source_repository.ids()
        assert clone.version == s2s.source_repository.version

    def test_replica_mirrors_round_trip(self):
        scenario = B2BScenario(n_sources=4, n_products=10, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        replica_ids = scenario.add_replicas(s2s)
        for replica_id in replica_ids.values():
            replica = s2s.source_repository.get(replica_id)
            assert extracted_values(s2s, roundtrip(replica)) == \
                extracted_values(s2s, replica)


class TestFaultInjectionRoundTrips:
    def test_flaky_wrapper_carries_its_fault_state(self):
        scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        inner = s2s.source_repository.get(
            scenario.organizations[0].source_id)
        flaky = FlakySource(inner, failure_rate=0.0,
                            failure_plan=[True, False, True],
                            error_factory=WorkerCrashed, clock=FakeClock())
        with pytest.raises(WorkerCrashed):
            flaky.execute_rule("probe")  # consumes plan entry #1
        clone = roundtrip(flaky)
        assert clone.attempts == 1 and clone.failures == 1
        assert clone._plan_index == 1  # plan position travels
        assert type(clone.inner) is type(inner)

    def test_killable_worker_round_trips(self):
        killable = KillableWorker([WorkerFault("kill", stage="QUERY")])
        clone = roundtrip(killable)
        assert clone.faults == killable.faults
        with pytest.raises(WorkerCrashed):
            clone.check("any_source", "QUERY")


class TestFleetPayloadRoundTrips:
    def _schema(self):
        scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
        s2s = scenario.build_middleware(metrics=MetricsRegistry())
        paths = [path for path in
                 s2s.registrar.schema.attribute_paths()][:4]
        return s2s, ExtractionSchema.build(s2s.attribute_repository, paths)

    def test_work_items_cross_the_boundary(self):
        _s2s, schema = self._schema()
        source_ids = schema.source_ids()
        item = QueryWorkItem("q1", 0, source_ids,
                             schema.restricted_to(source_ids),
                             deadline_seconds=1.5)
        clone = roundtrip(item)
        assert clone.request_id == "q1"
        assert clone.schema.source_ids() == source_ids
        assert clone.deadline_seconds == 1.5

    def test_worker_context_drops_process_local_collaborators(self):
        s2s, _schema = self._schema()
        ctx = QueryWorkerContext(attributes=s2s.attribute_repository,
                                 sources=s2s.source_repository,
                                 resilience=s2s.resilience,
                                 extractors=object(), breakers=object())
        clone = roundtrip(ctx)
        assert clone.extractors is None
        assert clone.breakers is None
        assert clone.sources.ids() == s2s.source_repository.ids()
        # The clone lazily rebuilds a default registry and extracts.
        manager = clone.manager_for_worker()
        outcome = manager.extract([], schema=ExtractionSchema.build(
            clone.attributes,
            [p for p in s2s.registrar.schema.attribute_paths()][:2]))
        assert outcome.record_sets

    def test_partial_outcomes_cross_back(self):
        s2s, schema = self._schema()
        outcome = s2s.manager.extract([], schema=schema)
        clone = roundtrip(outcome)
        assert sorted(clone.record_sets) == sorted(outcome.record_sets)
        assert sorted(clone.health) == sorted(outcome.health)
