"""Thread-safety: concurrent queries against one middleware instance.

A deployed S2S instance serves many client queries at once; the mapping
repositories are read-only at query time, sources guard their own state,
and each query assembles into fresh objects — so concurrent queries must
neither crash nor cross-contaminate results.
"""

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
