"""Event-driven fleet scheduling: the one clock-aware wait.

Both coordinators block on the pool's result queue until an event
arrives or the injectable clock reaches the next timer
(:func:`repro.core.cluster.pool.wait_for_events` over
:meth:`repro.clock.Clock.wait`).  These tests pin the mechanism rather
than its speed:

* the clock method itself — a real clock hands the whole timeout to the
  queue read, a fake clock gives real threads a moment and then jumps to
  the timer;
* the next-timer computation, with recording pool stubs — the timeout
  handed to the pool never exceeds the nearest deadline or restart
  backoff;
* an exact count — the dispatcher / ingest coordinator thread makes
  **zero** ``clock.sleep`` calls on thread, spawn and ingest runs;
* teardown — ``shutdown(timeout=)`` is one budget, not one per waiter,
  and leaves no dispatcher or worker thread behind even when the
  dispatcher was parked in an untimed wait;
* ``queued_ms`` / ``fleet_dispatch_wait_seconds``, the scheduling
  latency as seen from inside.
"""

from __future__ import annotations

import math
import queue as queue_module
import threading
import time

import pytest

from repro.clock import FAKE_WAIT_GRACE_SECONDS, FakeClock, SystemClock
from repro.config import ConcurrencyConfig, FleetConfig, ResilienceConfig
from repro.core.cluster import QueryShardCoordinator, QueryWorkerContext
from repro.core.cluster.pool import LIVENESS_PROBE_SECONDS, wait_for_events
from repro.core.resilience import Deadline, RetryPolicy
from repro.obs import MetricsRegistry
from repro.obs.trace import Span
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import result_key
from tests.core.test_fleet_scheduler import (_ScriptedManager, schema_for,
                                             submit, wait_until)

#: Slack for reading a timer a moment after the coordinator computed it.
EPSILON = 0.005


class SleepRecordingClock(SystemClock):
    """The real clock, remembering which thread slept.  A plain list
    (appends are atomic) keeps it picklable for spawn fleets."""

    def __init__(self) -> None:
        self.sleepers: list[str] = []

    def sleep(self, seconds: float) -> None:
        self.sleepers.append(threading.current_thread().name)
        super().sleep(seconds)


def scripted_coordinator(clock, fleet: FleetConfig, script=None, **kwargs):
    """A real coordinator (dispatcher thread, thread pool) over one
    scripted ``default`` tenant."""
    coordinator = QueryShardCoordinator(clock=clock, fleet=fleet, **kwargs)
    manager = _ScriptedManager(script)
    coordinator.register_tenant("default", lambda: QueryWorkerContext(
        attributes=None, sources=None, resilience=None, manager=manager))
    return coordinator, manager


def fleet_threads() -> list[str]:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name.startswith(("query-fleet-dispatcher",
                                             "query-worker-")))


class TestClockWait:
    def test_system_clock_spends_the_whole_timeout_in_the_poll(self):
        asked = []

        def poll(seconds):
            asked.append(seconds)
            return ["event"]

        clock = SleepRecordingClock()
        assert clock.wait(poll, 0.75) == ["event"]
        assert clock.wait(poll, None) == ["event"]
        assert asked == [0.75, None]
        assert clock.sleepers == []

    def test_fake_clock_jumps_to_the_timer_when_nothing_arrives(self):
        asked = []

        def silent(seconds):
            asked.append(seconds)
            return []

        clock = FakeClock()
        assert clock.wait(silent, 0.03) == []
        assert asked == [FAKE_WAIT_GRACE_SECONDS]
        assert clock.monotonic() == pytest.approx(0.03)

    def test_fake_clock_does_not_advance_past_an_event(self):
        clock = FakeClock()
        assert clock.wait(lambda seconds: ["event"], 0.03) == ["event"]
        assert clock.monotonic() == 0.0

    def test_fake_clock_without_a_timer_only_polls(self):
        asked = []

        def poll(seconds):
            asked.append(seconds)
            return ["woken"]

        clock = FakeClock()
        assert clock.wait(poll, None) == ["woken"]
        assert asked == [None] and clock.monotonic() == 0.0


class _RecordingPool:
    """An in-memory WorkerPool: no threads, a scripted liveness map and
    a log of every timeout ``events`` was handed, stamped with the
    tightest timer the test knows about at that moment."""

    def __init__(self, n_workers: int = 1, *, answers: bool = True,
                 bound=lambda: math.inf) -> None:
        self.n_workers = n_workers
        self.answers = answers
        self.bound = bound
        self.living = {worker: True for worker in range(n_workers)}
        self.results: queue_module.Queue = queue_module.Queue()
        self.waits: list[tuple[float | None, float]] = []
        self.restarted: list[int] = []

    def start(self) -> None: ...

    def submit(self, worker, item) -> None:
        if self.answers:
            self.results.put({"kind": "done", "shard": worker,
                              "request_id": item.request_id,
                              "item_shard": item.shard,
                              "payload": {"sources": item.source_ids}})

    def events(self, timeout):
        self.waits.append((timeout, self.bound()))
        try:
            return [self.results.get(timeout=timeout)]
        except queue_module.Empty:
            return []

    def wake(self) -> None:
        self.results.put({"kind": "wake"})

    def alive(self, worker) -> bool:
        return self.living[worker]

    def restart(self, worker) -> None:
        self.restarted.append(worker)
        self.living[worker] = True

    def shutdown(self) -> None: ...

    def timed_waits(self):
        return [(timeout, bound) for timeout, bound in self.waits
                if timeout is not None and bound != math.inf]


class TestNextTimer:
    def test_the_nearest_timer_wins_and_the_probe_caps_it(self):
        pool, clock = _RecordingPool(), SystemClock()
        wait_for_events(pool, clock, [0.5, math.inf])
        wait_for_events(pool, clock, [0.5, 0.004, 0.02])
        wait_for_events(pool, clock, [-1.0])  # overdue: poll, don't block
        wait_for_events(pool, clock, [])
        assert [timeout for timeout, _ in pool.waits] == [
            LIVENESS_PROBE_SECONDS, 0.004, 0.0, LIVENESS_PROBE_SECONDS]

    def test_no_timers_at_all_blocks_until_woken(self):
        pool = _RecordingPool()
        pool.wake()
        assert wait_for_events(pool, SystemClock(), None) == \
            [{"kind": "wake"}]
        assert pool.waits == [(None, math.inf)]

    def test_wait_never_overshoots_a_request_deadline(self):
        """A deadline inside the old 20 + 50 ms cycle: the pool is
        never asked to block past it, and the request is released on
        time rather than at the next tick."""
        clock = SystemClock()
        coordinator, _ = scripted_coordinator(clock, FleetConfig(n_workers=1))
        deadline = Deadline(0.010, clock)
        pool = _RecordingPool(answers=False, bound=deadline.remaining)
        coordinator._build_pool = lambda: pool
        started = time.monotonic()
        result = coordinator.execute(schema_for("never"), deadline=deadline)
        elapsed = time.monotonic() - started
        coordinator.shutdown()
        assert result.timed_out == {0}
        waits = pool.timed_waits()
        assert waits, pool.waits
        assert all(timeout <= bound + EPSILON for timeout, bound in waits), \
            waits
        assert elapsed < 0.010 + 4 * EPSILON

    def test_wait_never_overshoots_a_restart_backoff(self):
        """A dead worker with a 10 ms restart backoff: the wait that
        follows the death is bounded by ``restart_at``, so the restart
        (and the re-dispatch behind it) is not a tick late."""
        clock = SystemClock()
        coordinator, _ = scripted_coordinator(
            clock, FleetConfig(n_workers=1),
            restart_policy=RetryPolicy(max_attempts=4, base_delay=0.010,
                                       jitter="none"))
        restart_at = coordinator.supervisor.restart_at

        def restart_due_in() -> float:
            pending = list(restart_at.values())
            return (max(min(pending) - clock.monotonic(), 0.0)
                    if pending else math.inf)

        pool = _RecordingPool(bound=restart_due_in)
        pool.living[0] = False
        coordinator._build_pool = lambda: pool
        result = coordinator.execute(schema_for("src"),
                                     deadline=Deadline(None, clock))
        coordinator.shutdown()
        assert pool.restarted == [0]
        assert result.partials == {0: {"sources": ["src"]}}
        waits = pool.timed_waits()
        assert waits, pool.waits  # at least one wait saw the restart pending
        assert all(timeout <= bound + EPSILON for timeout, bound in waits), \
            waits


def slow_world(clock, concurrency, *, latency=0.030, **kwargs):
    """Four sources whose every rule sleeps ``latency`` — on ``clock``
    when the pool shares it (threads), so the recorder provably sees
    worker-side sleeps."""
    scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
    s2s = scenario.build_middleware(
        resilience=ResilienceConfig(clock=clock, concurrency=concurrency),
        **kwargs)
    for org in scenario.organizations:
        s2s.source_repository.register(
            FlakySource(s2s.source_repository.get(org.source_id),
                        failure_rate=0.0, latency=latency, clock=clock),
            replace=True)
    return s2s


class TestCoordinatorsNeverSleep:
    """The mechanism as an exact count: zero ``clock.sleep`` calls on
    the scheduling thread.  Injected source latency sleeps on worker
    threads (or in children) and is not the scheduler's."""

    def test_thread_fleet_dispatcher(self):
        clock = SleepRecordingClock()
        with slow_world(clock, ConcurrencyConfig.sharded(4)) as s2s:
            result = s2s.query("SELECT product")
        assert len(result.entities) == 8 and not result.degraded
        assert "query-fleet-dispatcher" not in clock.sleepers
        assert "MainThread" not in clock.sleepers
        # The recorder is live: the 30 ms source latency slept on it, on
        # a worker or one of the fan-out threads named after it.
        workers = {f"query-worker-{worker}" for worker in range(4)}
        assert all(name in workers or name.rpartition("_")[0] in workers
                   for name in clock.sleepers), clock.sleepers
        assert len(clock.sleepers) == 32  # 4 sources x 8 rules

    def test_spawn_fleet_dispatcher(self):
        clock = SleepRecordingClock()
        with slow_world(clock, ConcurrencyConfig.sharded(
                4, pool="spawn")) as s2s:
            result = s2s.query("SELECT product")
        assert len(result.entities) == 8 and not result.degraded
        assert clock.sleepers == []  # children sleep on their own copy

    def test_ingest_coordinator(self, tmp_path):
        clock = SleepRecordingClock()
        with slow_world(clock, ConcurrencyConfig(), latency=0.010,
                        store=True) as s2s:
            report = s2s.ingest("SELECT product",
                                journal_dir=str(tmp_path / "journal"),
                                fsync=False)
        assert report.completed == 4 and not report.aborted
        # ``run`` drains on the calling thread; only workers slept.
        assert set(clock.sleepers) <= {"ingest-worker-0", "ingest-worker-1"}
        assert len(clock.sleepers) == 32  # 4 sources x 8 rules


class TestShutdown:
    def test_timeout_is_one_budget_not_one_per_waiter(self):
        """Two requests finishing just inside consecutive ``timeout``
        windows: per-waiter timeouts would drain both (2 x timeout);
        one overall deadline degrades the second."""
        first, second = threading.Event(), threading.Event()
        clock = SystemClock()
        coordinator, manager = scripted_coordinator(
            clock, FleetConfig(n_workers=2),
            {"first": first.wait, "second": second.wait})
        thread_a, box_a = submit(coordinator, schema_for("first"),
                                 clock=clock)
        assert wait_until(lambda: len(manager.calls) == 1)
        thread_b, box_b = submit(coordinator, schema_for("second"),
                                 clock=clock)
        assert wait_until(lambda: len(manager.calls) == 2)
        threading.Timer(0.20, first.set).start()
        threading.Timer(0.45, second.set).start()
        started = time.monotonic()
        closer = threading.Thread(
            target=lambda: coordinator.shutdown(timeout=0.30), daemon=True)
        closer.start()
        thread_b.join(timeout=5.0)
        released = time.monotonic() - started
        thread_a.join(timeout=5.0)
        closer.join(timeout=5.0)  # the pool join outlasts the budget
        assert not closer.is_alive()
        assert 0.25 <= released < 0.42, released
        assert not box_a["result"].failures
        assert box_b["result"].failures
        assert all("shut down" in message
                   for message in box_b["result"].failures.values())

    def test_no_fleet_thread_survives_shutdown(self):
        """The idle dispatcher is parked in an untimed wait; teardown
        must wake and join it, and the workers with it."""
        before = fleet_threads()
        clock = SystemClock()
        coordinator, _ = scripted_coordinator(clock, FleetConfig(n_workers=3))
        coordinator.execute(schema_for("a", "b", "c"),
                            deadline=Deadline(None, clock))
        assert len(fleet_threads()) == len(before) + 4
        time.sleep(3 * LIVENESS_PROBE_SECONDS)  # well into the idle wait
        coordinator.shutdown()
        assert fleet_threads() == before

    def test_fleet_rebuilt_after_a_source_mutation_still_answers(self):
        before = fleet_threads()
        scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
        with scenario.build_middleware(
                concurrency=ConcurrencyConfig.sharded(2)) as s2s:
            expected = result_key(s2s.query("SELECT product"))
            first = s2s.manager.fleet._pool
            victim = scenario.organizations[0].source_id
            s2s.source_repository.register(
                FlakySource(s2s.source_repository.get(victim),
                            failure_rate=0.0), replace=True)
            assert result_key(s2s.query("SELECT product")) == expected
            assert s2s.manager.fleet._pool is not first
            # The lame-duck dispatcher was woken, not left parked.
            assert wait_until(lambda: len(fleet_threads())
                              == len(before) + 3)
        assert fleet_threads() == before


class TestDispatchWaitObservability:
    def test_queued_ms_reports_time_spent_waiting_for_a_worker(self):
        """One worker, two requests: the second's item is ready at
        admission but cannot be submitted until the first finishes."""
        gate = threading.Event()
        clock = SystemClock()
        metrics = MetricsRegistry()
        coordinator, manager = scripted_coordinator(
            clock, FleetConfig(n_workers=1), {"slow": gate.wait},
            metrics=metrics)
        root_a = Span("a", clock, threading.Lock())
        root_b = Span("b", clock, threading.Lock())
        thread_a, _ = submit(coordinator, schema_for("slow"), clock=clock,
                             span=root_a)
        assert wait_until(lambda: manager.calls)
        thread_b, _ = submit(coordinator, schema_for("quick"), clock=clock,
                             span=root_b)
        assert wait_until(
            lambda: coordinator.snapshot()["ready_queue_depth"] == 1)
        time.sleep(0.05)
        gate.set()
        thread_a.join(timeout=5.0)
        thread_b.join(timeout=5.0)
        coordinator.shutdown()
        immediate = root_a.find("shard.enqueue").attributes["queued_ms"]
        queued = root_b.find("shard.enqueue").attributes["queued_ms"]
        assert 0.0 <= immediate < 20.0
        assert queued >= 50.0
        histogram = metrics.histogram("fleet_dispatch_wait_seconds")
        assert histogram.count(tenant="default") == 2
        assert histogram.sum(tenant="default") == pytest.approx(
            (immediate + queued) / 1000.0, abs=1e-5)

    def test_no_new_span(self):
        clock = FakeClock()
        coordinator, _ = scripted_coordinator(clock, FleetConfig(n_workers=2))
        root = Span("root", clock, threading.Lock())
        coordinator.execute(schema_for("a"), deadline=Deadline(None, clock),
                            span=root)
        coordinator.shutdown()
        names = sorted(span.name for span in root.walk())
        assert names == ["root", "shard.enqueue", "shard.interleave"]
