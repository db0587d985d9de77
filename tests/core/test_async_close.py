"""``AsyncExtractorManager.close()`` must not strand synchronous callers.

A ``query()`` in flight under ``concurrency="asyncio"`` is parked on the
result of a coroutine running on the manager's private loop.  A mapping
reload closes the replaced manager; before the fix that stopped the loop
under the caller, who then waited forever."""

import threading
import time

from repro.errors import S2SError
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

#: Generous bound on how long a caller may stay parked after close().
RELEASE_BOUND_SECONDS = 5.0


def _slow_asyncio_world(latency: float):
    scenario = B2BScenario(n_sources=3, n_products=6, seed=7)
    s2s = scenario.build_middleware(concurrency="asyncio")
    for org in scenario.organizations:
        s2s.source_repository.register(
            FlakySource(s2s.source_repository.get(org.source_id),
                        failure_rate=0.0, latency=latency),
            replace=True)
    return scenario, s2s


def _wait_until(predicate, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_mapping_reload_releases_a_query_in_flight():
    baseline_threads = threading.active_count()
    scenario, s2s = _slow_asyncio_world(latency=0.25)
    outcome: dict = {}

    def caller() -> None:
        try:
            outcome["result"] = s2s.query("SELECT product")
        except S2SError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    previous = s2s.manager
    assert _wait_until(lambda: previous._loop is not None, 2.0)
    time.sleep(0.1)  # the query is now parked mid-extraction

    organizations = {org.source_id: org for org in scenario.organizations}
    s2s.load_mapping(
        s2s.dump_mapping(),
        lambda source_id, info: scenario.connector(
            organizations[source_id]))
    assert previous._loop is None

    thread.join(timeout=RELEASE_BOUND_SECONDS)
    assert not thread.is_alive(), \
        "query() still blocked after its engine was closed"
    assert "result" in outcome or isinstance(outcome.get("error"), S2SError)

    # The fresh engine answers, and close() leaves no thread behind.
    assert len(s2s.query("SELECT product").entities) == 6
    s2s.close()
    assert _wait_until(
        lambda: threading.active_count() <= baseline_threads,
        RELEASE_BOUND_SECONDS), \
        f"{threading.active_count()} threads alive, baseline " \
        f"{baseline_threads}"


def test_close_cancels_every_parked_caller():
    _, s2s = _slow_asyncio_world(latency=0.5)
    errors: list = []

    def caller() -> None:
        try:
            s2s.query("SELECT product")
        except S2SError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, daemon=True)
               for _ in range(3)]
    for thread in threads:
        thread.start()
    assert _wait_until(lambda: s2s.manager._loop is not None, 2.0)
    time.sleep(0.2)
    started = time.monotonic()
    s2s.manager.close()
    for thread in threads:
        thread.join(timeout=RELEASE_BOUND_SECONDS)
    assert not any(thread.is_alive() for thread in threads)
    assert time.monotonic() - started < RELEASE_BOUND_SECONDS
    assert len(errors) == 3
    assert all("closed while the query was in flight" in str(exc)
               for exc in errors)
    s2s.close()
