"""Thread-safety: concurrent queries against one middleware instance.

A deployed S2S instance serves many client queries at once; the mapping
repositories are read-only at query time, sources guard their own state,
and each query assembles into fresh objects — so concurrent queries must
neither crash nor cross-contaminate results.  A caller on an event loop
hands the blocking ``query()`` to a worker thread
(``await asyncio.to_thread(s2s.query, q)``, docs/api.md), which is the
same traffic shape.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.workloads import B2BScenario

QUERIES = [
    "SELECT product",
    'SELECT product WHERE case = "stainless-steel"',
    "SELECT product WHERE price < 300",
    'SELECT product WHERE brand = "Seiko"',
    "SELECT provider",
]


@pytest.fixture(scope="module")
def shared_world():
    scenario = B2BScenario(n_sources=4, n_products=24)
    return scenario, scenario.build_middleware()


def result_key(result):
    return sorted((entity.primary.class_name, entity.value("brand"),
                   entity.value("model"), entity.source_id)
                  for entity in result.entities)


class TestConcurrentQueries:
    def test_parallel_clients_get_serial_answers(self, shared_world):
        _scenario, s2s = shared_world
        expected = {query: result_key(s2s.query(query))
                    for query in QUERIES}
        jobs = QUERIES * 6
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda q: (q, s2s.query(q)), jobs))
        for query, result in results:
            assert result_key(result) == expected[query], query

    def test_concurrent_queries_with_parallel_extraction(self):
        scenario = B2BScenario(n_sources=4, n_products=16)
        s2s = scenario.build_middleware(concurrency="thread")
        expected = result_key(s2s.query("SELECT product"))
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda _i: s2s.query("SELECT product"), range(12)))
        for result in results:
            assert result_key(result) == expected

    def test_concurrent_queries_with_shared_cache(self):
        scenario = B2BScenario(n_sources=4, n_products=16)
        s2s = scenario.build_middleware(store=True)
        expected = result_key(s2s.query("SELECT product"))  # warm
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda _i: s2s.query("SELECT product"), range(12)))
        for result in results:
            assert result_key(result) == expected
            assert result.store_hit

    def test_error_reports_do_not_leak_across_queries(self, shared_world):
        scenario, _s2s = shared_world
        # A middleware with one dead source: errors appear in every
        # query's own report, never accumulate across queries.
        s2s = scenario.build_middleware()
        web_org = next(o for o in scenario.organizations
                       if o.source_type == "webpage")
        scenario.web.unpublish(web_org.url)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(
                    lambda _i: s2s.query("SELECT product"), range(8)))
            counts = {len(result.errors) for result in results}
            assert len(counts) == 1  # identical, not accumulating
        finally:
            scenario.web.publish(web_org.url, "<html/>")


class TestEventLoopCallers:
    def test_a_to_thread_hand_off_answers_in_full(self):
        s2s = B2BScenario(n_sources=4, n_products=16,
                          seed=7).build_middleware(concurrency="thread")
        result = asyncio.run(asyncio.to_thread(s2s.query, "SELECT product"))
        assert len(result.entities) == 16

    def test_hand_offs_gathered_on_one_loop_agree(self):
        """Eight hand-offs gathered on one loop run as concurrent queries
        from several threads, and all agree with the direct answer."""
        s2s = B2BScenario(n_sources=4, n_products=16,
                          seed=7).build_middleware(concurrency="thread")
        expected = result_key(s2s.query("SELECT product"))

        async def drive():
            return await asyncio.gather(
                *(asyncio.to_thread(s2s.query, "SELECT product")
                  for _ in range(8)))

        for result in asyncio.run(drive()):
            assert result_key(result) == expected


class TestMappingReload:
    def test_a_new_engine_answers_identically(self):
        scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
        s2s = scenario.build_middleware(concurrency="thread")
        expected = result_key(s2s.query("SELECT product"))
        previous = s2s.manager
        organizations = {org.source_id: org
                         for org in scenario.organizations}
        s2s.load_mapping(
            s2s.dump_mapping(),
            lambda source_id, info: scenario.connector(
                organizations[source_id]))
        assert s2s.manager is not previous
        assert result_key(s2s.query("SELECT product")) == expected
