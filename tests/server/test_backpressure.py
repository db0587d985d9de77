"""Admission control under overload, deterministically.

The server's clock is a FakeClock: queue deadlines and idle timeouts
move only when the test advances time, and the execution slot is held
by a gate the test releases — overload, pushback and expiry are
reproduced exactly, with no real sleeps steering the assertions.  The
last two tests run on the real clock: what ``stop()`` leaves behind,
and the admission bounds under a crowd of clients.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.clock import FakeClock
from repro.obs import MetricsRegistry
from repro.server import (S2SClient, S2SServer, ServerBusyError,
                          ServerConfig, ServerThread)
from repro.server.protocol import (CODE_DEADLINE, RemoteServerError,
                                   TornFrameError)
from repro.workloads import B2BScenario


class GatedMiddleware:
    """Wraps a real middleware; queries block until the gate opens.

    The gate is a *threading* event waited on by the connection's
    thread, so the test controls exactly how long the execution slot
    stays occupied."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def query(self, query, *, merge_key=None):
        self.gate.wait()
        return self.inner.query(query, merge_key=merge_key)


def wait_until(predicate, *, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def overloaded():
    """One execution slot, one queue seat, a gate, and a fake clock."""
    inner = B2BScenario(n_sources=2, n_products=4, seed=5).build_middleware()
    gated = GatedMiddleware(inner)
    clock = FakeClock()
    metrics = MetricsRegistry()
    server = S2SServer(
        {"default": gated},
        config=ServerConfig(max_inflight=1, max_queue=1,
                            retry_after_seconds=0.25,
                            request_deadline_seconds=5.0,
                            idle_timeout_seconds=60.0),
        clock=clock, metrics=metrics)
    # idle reaping is driven manually through the reap_idle() seam in
    # these tests: park the reaper thread until the server closes so it
    # cannot race them
    server._reap_loop = server._closed.wait
    thread = ServerThread(server)
    host, port = thread.start()
    world = {"host": host, "port": port, "server": server, "gate": gated.gate,
             "clock": clock, "metrics": metrics, "thread": thread,
             "inner": inner}
    yield world
    gated.gate.set()
    thread.stop()


def background_query(world, results, key):
    def go():
        client = S2SClient(world["host"], world["port"], tenant="default")
        try:
            results[key] = client.query("SELECT Product")
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            results[key] = exc
        finally:
            client.close()

    worker = threading.Thread(target=go, daemon=True)
    worker.start()
    return worker


class TestOverload:
    def test_full_queue_rejects_with_retry_after(self, overloaded):
        server = overloaded["server"]
        results: dict = {}
        # A occupies the single slot (blocked on the gate)...
        a = background_query(overloaded, results, "a")
        wait_until(lambda: server.inflight == 1, message="A in flight")
        # ...B takes the single queue seat...
        b = background_query(overloaded, results, "b")
        wait_until(lambda: server.queue_depth == 1, message="B queued")
        # ...so C must be pushed back immediately, not queued.
        client = S2SClient(overloaded["host"], overloaded["port"],
                           tenant="default")
        with pytest.raises(ServerBusyError) as excinfo:
            client.query("SELECT Product")
        client.close()
        assert excinfo.value.retry_after == 0.25
        assert excinfo.value.queue_depth == 1
        # bounded admission: the queue never grew past its seat
        assert server.queue_depth == 1
        metrics = overloaded["metrics"]
        assert metrics.counter("server_rejected_total").value(
            reason="queue_full") == 1
        assert metrics.gauge("server_queue_depth").value() == 1
        # open the gate: A and B both complete with real answers
        overloaded["gate"].set()
        a.join(timeout=10.0)
        b.join(timeout=10.0)
        assert len(results["a"]) == 4
        assert len(results["b"]) == 4
        # the response is written before the slot is put back, so give
        # the loop a beat to run the release
        wait_until(lambda: server.inflight == 0 and server.queue_depth == 0,
                   message="slots released")
        assert metrics.gauge("server_queue_depth").value() == 0

    def test_queue_depth_stays_bounded_under_a_burst(self, overloaded):
        server = overloaded["server"]
        results: dict = {}
        workers = [background_query(overloaded, results, "hold")]
        wait_until(lambda: server.inflight == 1, message="slot held")
        # a burst of 6 more: 1 queues, 5 are refused — never more than
        # max_queue waiting, no matter the offered load
        for n in range(6):
            workers.append(background_query(overloaded, results, f"w{n}"))
        wait_until(lambda: len(results) >= 5, timeout=10.0,
                   message="burst answered")
        assert server.queue_depth <= 1
        rejected = [value for value in results.values()
                    if isinstance(value, ServerBusyError)]
        assert len(rejected) == 5
        overloaded["gate"].set()
        for worker in workers:
            worker.join(timeout=10.0)
        completed = [value for value in results.values()
                     if not isinstance(value, Exception)]
        assert len(completed) == 2  # the holder + the one queued

    def test_queued_request_expires_on_the_fake_clock(self, overloaded):
        server = overloaded["server"]
        results: dict = {}
        a = background_query(overloaded, results, "a")
        wait_until(lambda: server.inflight == 1, message="A in flight")
        b = background_query(overloaded, results, "b")
        wait_until(lambda: server.queue_depth == 1, message="B queued")
        # B's 5s queue deadline passes in fake time while it waits...
        overloaded["clock"].advance(6.0)
        overloaded["gate"].set()
        a.join(timeout=10.0)
        b.join(timeout=10.0)
        # ...so when the slot frees, B is answered with the deadline
        # error instead of executing a request nobody is waiting for.
        assert len(results["a"]) == 4
        assert isinstance(results["b"], RemoteServerError)
        assert results["b"].code == CODE_DEADLINE
        assert overloaded["metrics"].counter("server_rejected_total").value(
            reason="deadline") == 1


class TestIdleReaping:
    def test_idle_connection_is_reaped_on_the_fake_clock(self, overloaded):
        client = S2SClient(overloaded["host"], overloaded["port"],
                           tenant="default")
        client.connect()
        wait_until(lambda: len(overloaded["server"]._connections) == 1,
                   message="connection registered")
        overloaded["clock"].advance(61.0)
        assert overloaded["thread"].reap_idle() == 1
        with pytest.raises((TornFrameError, ConnectionError, OSError)):
            client.query("SELECT Product")
        client.close()
        assert overloaded["metrics"].counter(
            "server_idle_reaped_total").value() == 1

    def test_active_connection_is_not_reaped(self, overloaded):
        overloaded["gate"].set()
        client = S2SClient(overloaded["host"], overloaded["port"],
                           tenant="default")
        client.connect()
        overloaded["clock"].advance(30.0)
        client.query("SELECT Product")  # touches the connection
        overloaded["clock"].advance(45.0)  # 45s idle < 60s timeout
        assert overloaded["thread"].reap_idle() == 0
        assert len(client.query("SELECT Product")) == 4
        client.close()


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class SlowToWindDown(S2SServer):
    """A connection thread that lingers after its session: ``stop()``
    must join it, not merely shut its socket down."""

    def serve(self, sock):
        super().serve(sock)
        time.sleep(0.2)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc")
def test_stop_leaves_no_thread_or_descriptor_behind():
    """An idle client, a client mid-query behind the gate and a client
    that already left: ``stop()`` answers the one in flight, then closes
    every socket and joins every thread the server started."""
    inner = B2BScenario(n_sources=2, n_products=4, seed=5).build_middleware()
    inner.query("SELECT Product")  # whatever the middleware keeps, warm
    gated = GatedMiddleware(inner)
    server = SlowToWindDown({"default": gated},
                            config=ServerConfig(idle_timeout_seconds=60.0),
                            metrics=MetricsRegistry())
    threads, descriptors = threading.active_count(), open_descriptors()
    thread = ServerThread(server)
    host, port = thread.start()
    world = {"host": host, "port": port}
    idle = S2SClient(host, port, tenant="default").connect()
    gone = S2SClient(host, port, tenant="default").connect()
    gone.close()
    results: dict = {}
    worker = background_query(world, results, "mid")
    wait_until(lambda: server.inflight == 1, message="query in flight")
    stopper = threading.Thread(target=thread.stop)
    stopper.start()
    wait_until(lambda: server.draining, message="drain begun")
    gated.gate.set()
    stopper.join(timeout=10.0)
    worker.join(timeout=10.0)
    idle.close()
    answer = results["mid"]
    assert (len(answer) == 4 if not isinstance(answer, Exception)
            else answer.code == "SHUTTING_DOWN")
    assert threading.active_count() == threads
    assert open_descriptors() == descriptors
    inner.close()


class CountingMiddleware(GatedMiddleware):
    """Records the most queries it ever ran at once."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate.set()
        self.lock = threading.Lock()
        self.running = self.peak = 0

    def query(self, query, *, merge_key=None):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(0.001)
            return super().query(query, merge_key=merge_key)
        finally:
            with self.lock:
                self.running -= 1


def test_admission_holds_its_bounds_under_a_crowd_of_clients():
    """Eight clients on a two-core box, thread switches every 10 us: a
    lost update of the admission counters would let a third query run,
    or leave a slot or a seat taken after the crowd has gone."""
    inner = B2BScenario(n_sources=2, n_products=4, seed=5).build_middleware()
    counting = CountingMiddleware(inner)
    server = S2SServer({"default": counting},
                       config=ServerConfig(max_inflight=2, max_queue=2,
                                           retry_after_seconds=0.0),
                       metrics=MetricsRegistry())
    outcomes: list = []

    def crowd_member(host, port):
        with S2SClient(host, port, tenant="default") as client:
            for _ in range(15):
                try:
                    outcomes.append(len(client.query("SELECT Product")))
                except ServerBusyError:
                    outcomes.append("busy")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServerThread(server) as (host, port):
            crowd = [threading.Thread(target=crowd_member, args=(host, port))
                     for _ in range(8)]
            for member in crowd:
                member.start()
            for member in crowd:
                member.join(timeout=60.0)
            assert not any(member.is_alive() for member in crowd)
            wait_until(lambda: server.inflight == 0
                       and server.queue_depth == 0, message="slots freed")
    finally:
        sys.setswitchinterval(previous)
    assert counting.peak <= 2
    assert len(outcomes) == 8 * 15
    assert set(outcomes) <= {4, "busy"} and 4 in outcomes
    inner.close()
