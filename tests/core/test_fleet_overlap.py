"""Fleet workers overlap their sources' waits.

A worker extracts its shard item on the in-process thread engine, so
the sources of one item wait side by side, not one after another: one
fan-out thread per source of the item, named after the worker and gone
when the item is.  Two sources whose every rule must meet the other's at
a two-party barrier prove the overlap — a worker that ran them one at a
time would wait alone until the barrier broke.  Deadlines behave as the
thread engine makes them behave: a source still blocked when the item's
deadline passes is abandoned and reported as the item's problem.
"""

from __future__ import annotations

import threading
import time

from repro.clock import SystemClock
from repro.config import ConcurrencyConfig, FleetConfig
from repro.core.cluster.coordinator import (FleetWorkerContext, QueryWorkItem,
                                            run_query_item)
from repro.core.extractor.manager import timed_out_problem
from repro.core.extractor.schema import ExtractionSchema
from repro.core.resilience import Deadline
from repro.errors import ExtractionError
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario


class MeetingClock(SystemClock):
    """A clock whose every sleep is a meeting of two: it returns once
    another thread sleeps too, and fails the rule when nobody comes
    within five seconds.  Remembers who met."""

    def __init__(self) -> None:
        self.barrier = threading.Barrier(2, timeout=5.0)
        self.sleepers: list[str] = []

    def sleep(self, seconds: float) -> None:
        self.sleepers.append(threading.current_thread().name)
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise ExtractionError("waited alone at the barrier") from None


class HangingClock(SystemClock):
    """A clock whose sleeps block until released (at most five
    seconds): a source stuck in foreign code."""

    def __init__(self) -> None:
        self.released = threading.Event()

    def sleep(self, seconds: float) -> None:
        self.released.wait(timeout=5.0)


def one_worker_world(clocks):
    """Two sources on a one-worker fleet (so one shard item holds both),
    each rule of source ``i`` sleeping on ``clocks[i]``."""
    scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
    s2s = scenario.build_middleware(concurrency=ConcurrencyConfig.sharded(
        fleet=FleetConfig(n_workers=1)))
    for org, clock in zip(scenario.organizations, clocks):
        if clock is not None:
            s2s.source_repository.register(
                FlakySource(s2s.source_repository.get(org.source_id),
                            failure_rate=0.0, latency=0.001, clock=clock),
                replace=True)
    return s2s, [org.source_id for org in scenario.organizations]


def fan_out_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("query-worker-0_")]


def test_the_sources_of_one_shard_item_wait_side_by_side():
    meeting = MeetingClock()
    s2s, _ = one_worker_world([meeting, meeting])
    with s2s:
        result = s2s.query("SELECT product")
        dispatches = s2s.metrics().counter("shard_dispatches_total").total()
        assert fan_out_threads() == []  # they lived for the one item
    assert not result.degraded, [str(e) for e in result.errors.entries]
    assert len(result.entities) == 4 and dispatches == 1
    # 2 sources x 8 rules, each on one of the worker's two named threads.
    assert len(meeting.sleepers) == 16
    assert set(meeting.sleepers) == {"query-worker-0_0", "query-worker-0_1"}


def test_a_source_abandoned_at_the_deadline_is_the_item_s_problem():
    hanging = HangingClock()
    s2s, (hung, quick) = one_worker_world([hanging, None])
    paths = list(s2s.registrar.schema.attribute_paths())
    schema = ExtractionSchema.build(s2s.attribute_repository, paths)
    item = QueryWorkItem("q1", 0, schema.source_ids(), schema,
                         deadline_seconds=0.3)
    events: list[dict] = []
    started = time.monotonic()
    try:
        run_query_item(0, item,
                       FleetWorkerContext({"default": s2s.manager._worker_context()}),
                       events.append)
    finally:
        hanging.released.set()
        s2s.close()
    assert time.monotonic() - started < 2.0
    assert [event["kind"] for event in events] == ["beat", "done"]
    outcome = events[-1]["payload"]
    assert [str(problem) for problem in outcome.problems] == [
        str(timed_out_problem(hung, Deadline(0.3)))]
    assert outcome.health[hung].deadline_hits == 1
    assert outcome.per_source_seconds[hung] == 0.3
    assert sorted(outcome.record_sets) == [quick]
