"""The asyncio engine owns no thread, so nothing can strand a caller.

A blocking ``query()`` under ``concurrency="asyncio"`` runs the engine on
a loop that lives for exactly that call (``asyncio.run``).  A mapping
reload that replaces the manager mid-query therefore has nothing to stop
under the caller: the query finishes on the loop it started, the fresh
engine answers the next one, and no engine thread exists before, during
or after."""

import threading
import time

from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

#: Generous bound on how long a caller may take to come back.
RELEASE_BOUND_SECONDS = 5.0


def _slow_asyncio_world(latency: float):
    scenario = B2BScenario(n_sources=3, n_products=6, seed=7)
    s2s = scenario.build_middleware(concurrency="asyncio")
    flaky = [FlakySource(s2s.source_repository.get(org.source_id),
                         failure_rate=0.0, latency=latency)
             for org in scenario.organizations]
    for source in flaky:
        s2s.source_repository.register(source, replace=True)
    return scenario, s2s, flaky


def _wait_until(predicate, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _engine_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-async-extractor")]


def test_mapping_reload_releases_a_query_in_flight():
    baseline_threads = threading.active_count()
    scenario, s2s, flaky = _slow_asyncio_world(latency=0.25)
    outcome: dict = {}

    def caller() -> None:
        outcome["result"] = s2s.query("SELECT product")

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    previous = s2s.manager
    # The query is mid-extraction once every source has been knocked on.
    assert _wait_until(
        lambda: all(source.attempts for source in flaky), 2.0)
    assert not _engine_threads()

    organizations = {org.source_id: org for org in scenario.organizations}
    s2s.load_mapping(
        s2s.dump_mapping(),
        lambda source_id, info: scenario.connector(
            organizations[source_id]))
    assert s2s.manager is not previous

    thread.join(timeout=RELEASE_BOUND_SECONDS)
    assert not thread.is_alive(), \
        "query() still blocked after its engine was replaced"
    # Not cancelled: it finished on the loop it started.
    assert len(outcome["result"].entities) == 6
    assert not outcome["result"].degraded

    # The fresh engine answers, and close() leaves no thread behind.
    assert len(s2s.query("SELECT product").entities) == 6
    s2s.close()
    assert not _engine_threads()
    assert _wait_until(
        lambda: threading.active_count() <= baseline_threads,
        RELEASE_BOUND_SECONDS), \
        f"{threading.active_count()} threads alive, baseline " \
        f"{baseline_threads}"


def test_scheduler_workers_leave_no_engine_thread():
    baseline_threads = threading.active_count()
    _, s2s, _ = _slow_asyncio_world(latency=0.01)
    with s2s.scheduler(max_workers=2) as scheduler:
        futures = [scheduler.submit(query) for query in (
            "SELECT product", 'SELECT product WHERE brand = "Seiko"',
            "SELECT product")]
        results = [future.result(timeout=RELEASE_BOUND_SECONDS)
                   for future in futures]
        assert not _engine_threads()
    assert len(results[0].entities) == len(results[2].entities) == 6
    s2s.close()
    assert not _engine_threads()
    assert _wait_until(
        lambda: threading.active_count() <= baseline_threads,
        RELEASE_BOUND_SECONDS)
