"""Middleware lifecycle: close() releases what the middleware owns."""

from __future__ import annotations

import threading
import time

from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

#: Generous bound on how long a caller may take to come back.
RELEASE_BOUND_SECONDS = 5.0


def build(**kwargs):
    return B2BScenario(n_sources=2, n_products=4, seed=3).build_middleware(
        **kwargs)


class TestClose:
    def test_close_is_idempotent(self):
        middleware = build()
        middleware.close()
        middleware.close()  # second call is a no-op, not an error
        assert middleware._closed

    def test_context_manager_closes(self):
        with build() as middleware:
            assert len(middleware.query("SELECT Product")) == 4
        assert middleware._closed

    def test_close_stops_owned_refresher(self):
        middleware = build(store=True)
        refresher = middleware.store_refresher(interval_seconds=60.0)
        middleware.close()
        assert refresher._closed

    def test_close_stops_owned_ingest_coordinator(self, tmp_path):
        middleware = build(store=True)
        coordinator = middleware.ingest_coordinator(str(tmp_path / "journal"))
        coordinator.journal.append({"type": "probe"})  # opens the handle
        middleware.close()
        # the journal is what the coordinator owns; closed means closed
        assert coordinator.journal._handle is None

    def test_mapping_inspection_survives_close(self):
        middleware = build()
        middleware.close()
        assert middleware.mapping_coverage() > 0

    def test_released_refresher_does_not_block_close(self):
        # a refresher the caller already closed (and dropped) must not
        # break middleware teardown
        middleware = build(store=True)
        refresher = middleware.store_refresher()
        refresher.close()
        del refresher
        middleware.close()
        assert middleware._closed


def _wait_until(predicate, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_mapping_reload_releases_a_query_in_flight():
    """A reload replaces the manager under a thread-engine query: the
    query finishes on the manager it started with, the new one answers
    the next, and close() leaves no fan-out thread behind."""
    baseline_threads = threading.active_count()
    scenario = B2BScenario(n_sources=3, n_products=6, seed=7)
    s2s = scenario.build_middleware(concurrency="thread")
    flaky = [FlakySource(s2s.source_repository.get(org.source_id),
                         failure_rate=0.0, latency=0.25)
             for org in scenario.organizations]
    for source in flaky:
        s2s.source_repository.register(source, replace=True)
    outcome: dict = {}

    def caller() -> None:
        outcome["result"] = s2s.query("SELECT product")

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    previous = s2s.manager
    # The query is mid-extraction once every source has been knocked on.
    assert _wait_until(
        lambda: all(source.attempts for source in flaky), 2.0)

    organizations = {org.source_id: org for org in scenario.organizations}
    s2s.load_mapping(
        s2s.dump_mapping(),
        lambda source_id, info: scenario.connector(
            organizations[source_id]))
    assert s2s.manager is not previous

    thread.join(timeout=RELEASE_BOUND_SECONDS)
    assert not thread.is_alive(), \
        "query() still blocked after its manager was replaced"
    assert len(outcome["result"].entities) == 6
    assert not outcome["result"].degraded

    assert len(s2s.query("SELECT product").entities) == 6
    s2s.close()
    assert _wait_until(
        lambda: threading.active_count() <= baseline_threads,
        RELEASE_BOUND_SECONDS), \
        f"{threading.active_count()} threads alive, baseline " \
        f"{baseline_threads}"
