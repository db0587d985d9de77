"""E1 — end-to-end query latency vs number of sources (paper Figure 1).

The architecture claim: a *single query* integrates any number of
registered heterogeneous sources.  Measures S2SQL query latency as the
source count grows, against the syntactic-merge and hand-written federated
baselines on identical data, plus the lazy-vs-eager extraction ablation.

Series printed (recorded in EXPERIMENTS.md):
    sources, records, s2s_ms, syntactic_ms, federated_ms, lazy/eager ratio
"""

from __future__ import annotations

import pytest

from repro.bench import ResultTable, measure
from repro.workloads.scaling import source_count_sweep

SOURCE_COUNTS = [1, 2, 4, 8, 16]
QUERY = 'SELECT product WHERE case = "stainless-steel" AND price < 500'


@pytest.fixture(scope="module")
def sweep():
    return list(source_count_sweep(SOURCE_COUNTS, records_per_source=10))


def test_e1_report(sweep):
    table = ResultTable(
        "E1: end-to-end latency vs #sources (10 records/source)",
        ["sources", "records", "s2s_ms", "syntactic_ms", "federated_ms",
         "eager_ms", "s2s_entities"])
    for point in sweep:
        scenario = point.scenario
        s2s = point.middleware
        syntactic = scenario.build_syntactic_baseline()
        federated = scenario.build_federated_baseline()

        s2s_time = measure(lambda: s2s.query(QUERY), repeats=3)
        syn_time = measure(
            lambda: [syntactic.query(**{field: "stainless-steel"})
                     for field in ("case_material", "gehaeuse", "housing")],
            repeats=3)
        fed_time = measure(
            lambda: federated.query(
                lambda r: r["case"] == "stainless-steel"
                and r["price"] is not None and r["price"] < 500),
            repeats=3)
        eager_time = measure(lambda: s2s.extract_all(), repeats=3)
        entities = len(s2s.query(QUERY))
        table.add_row(point.n_sources, point.n_products,
                      s2s_time.mean_ms, syn_time.mean_ms, fed_time.mean_ms,
                      eager_time.mean_ms, entities)
    table.print()


def test_e1_s2s_answers_match_ground_truth(sweep):
    for point in sweep:
        expected = point.scenario.expected_matches(
            lambda p: p.case == "stainless-steel" and p.price < 500)
        assert len(point.middleware.query(QUERY)) == len(expected)


def test_e1_parallel_and_cache_ablation():
    """E1b: serial vs parallel extraction under simulated source latency,
    and a repeat query served by the semantic store."""
    from repro.workloads import B2BScenario

    table = ResultTable(
        "E1b: extraction ablations (8 web sources, 5ms latency)",
        ["variant", "ms"])
    scenario = B2BScenario(n_sources=8, n_products=24,
                           source_mix=("webpage",), web_latency=0.005)
    serial = scenario.build_middleware()
    parallel = scenario.build_middleware(concurrency="thread")
    stored = scenario.build_middleware(store=True)

    serial_time = measure(lambda: serial.extract_all(), repeats=3)
    parallel_time = measure(lambda: parallel.extract_all(), repeats=3)
    stored.materialize(QUERY)
    served_time = measure(lambda: stored.query(QUERY), repeats=3)
    table.add_row("serial", serial_time.mean_ms)
    table.add_row("parallel (thread pool)", parallel_time.mean_ms)
    table.add_row("served repeat query (store=True)", served_time.mean_ms)
    table.print()
    assert parallel_time.mean < serial_time.mean
    assert served_time.mean < serial_time.mean


def test_e1_stage_breakdown_report(sweep):
    """E1c: where does the latency go?  Per-stage share of one traced
    query at each source count (parse/plan/extract/generate/filter)."""
    from repro.bench import stage_breakdown
    from repro.obs import Tracer

    table = ResultTable(
        "E1c: per-stage latency share vs #sources (traced query)",
        ["sources", "stage", "ms", "share"])
    for point in sweep:
        tracer = Tracer()
        point.middleware.query_handler.tracer = tracer
        try:
            result = point.middleware.query(QUERY)
        finally:
            point.middleware.query_handler.tracer = None
        for cost in stage_breakdown(result.trace):
            table.add_row(point.n_sources, cost.stage, cost.ms,
                          f"{cost.share:.0%}")
    table.print()


@pytest.mark.parametrize("sources", [1, 4, 16])
def test_e1_query_latency(benchmark, sweep, sources):
    point = next(p for p in sweep if p.n_sources == sources)
    benchmark(lambda: point.middleware.query(QUERY))


def test_e1_federated_baseline_latency(benchmark, sweep):
    point = next(p for p in sweep if p.n_sources == 4)
    federated = point.scenario.build_federated_baseline()
    benchmark(lambda: federated.query(
        lambda r: r["case"] == "stainless-steel"
        and r["price"] is not None and r["price"] < 500))


def test_e1_syntactic_baseline_latency(benchmark, sweep):
    point = next(p for p in sweep if p.n_sources == 4)
    syntactic = point.scenario.build_syntactic_baseline()
    benchmark(lambda: syntactic.query(case_material="stainless-steel"))
