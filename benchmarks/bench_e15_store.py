"""E15 — materialized store: repeat-query speedup and delta refresh cost.

A B2B hub answers the same catalog queries over and over; the semantic
store materializes the compiled instances so repeat queries skip the
whole extract/generate pipeline.  Two questions:

* **Serving speedup** — how much faster is a store-served repeat query
  than live extraction?  (Acceptance floor: >= 5x.)
* **Refresh cost vs churn** — an incremental refresh re-extracts only
  changed sources, so its cost should scale with the *changed fraction*
  of the world (0%..100%), not with world size.  The 1-changed-source
  case is asserted structurally (span tree + source access counters),
  never by timing.
* **What a refresh changes in the RDF view** — a source whose
  fingerprint changed but whose entities did not leaves the store's
  triple set as it was, and one changed record changes that record's
  triples only (asserted on ``store.graph``).
* **The store's own costs** — a first ``materialize``, a warm
  ``store.load`` and the first SPARQL query after a one-source refresh
  (which indexes the refreshed slices), in-process on the 8-source,
  400-record world the ROADMAP sizes the store by.  Reported, no floor.

``E15_ITERATIONS=1`` puts the benchmark in CI smoke mode; the default
takes the best of 3 runs per cell.
"""

from __future__ import annotations

import os
import time

from repro.bench import ResultTable
from repro.obs import Tracer
from repro.workloads import B2BScenario

ITERATIONS = int(os.environ.get("E15_ITERATIONS", "3"))
N_PRODUCTS = 24
REPEATS = 20

#: sources mutated per refresh-cost cell (out of the 4-source world)
CHURN_STEPS = [(0.0, 0), (0.25, 1), (0.5, 2), (1.0, 4)]

#: the world of the store-cost rows
COST_WORLD = {"n_sources": 8, "n_products": 400, "seed": 7}
PROVENANCE = ("PREFIX store: <http://example.org/s2s/store#> "
              "SELECT ?s ?src WHERE { ?s store:source ?src }")


def build_world(**kwargs):
    scenario = B2BScenario(n_sources=4, n_products=N_PRODUCTS, seed=7)
    return scenario, scenario.build_middleware(**kwargs)


def best_of(runs: int, operation) -> float:
    return min(_timed(operation) for _ in range(runs))


def _timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def mutate(scenario, org) -> None:
    """Touch one organization's content so its fingerprint changes."""
    if org.source_type == "database":
        org.database.execute(
            "UPDATE products SET provider_country = 'Atlantis'")
    elif org.source_type == "xml":
        document = org.xml_store.export("catalog.xml")
        org.xml_store.put("catalog.xml", document.replace(
            "</catalog>", "<touched>1</touched></catalog>"))
    elif org.source_type == "webpage":
        scenario.web.mutate(org.url,
                            lambda html: html + "<!-- touched -->")
    else:
        org.text_store.append("inventory.txt", "\n# touched")


def run_repeats(s2s, count: int = REPEATS):
    return [s2s.query("SELECT product") for _ in range(count)]


def test_e15_store_report():
    table = ResultTable(
        f"E15: semantic store ({N_PRODUCTS} records, 4 sources, "
        f"best of {ITERATIONS})",
        ["mode", "repeat_queries", "seconds", "qps"])
    _scenario, live = build_world()
    _scenario, stored = build_world(store=True)
    run_repeats(live, 2)  # warm interpreter/caches
    run_repeats(stored, 2)  # warm + materialize
    live_seconds = best_of(ITERATIONS, lambda: run_repeats(live))
    store_seconds = best_of(ITERATIONS, lambda: run_repeats(stored))
    table.add_row("live", REPEATS, live_seconds, REPEATS / live_seconds)
    table.add_row("store", REPEATS, store_seconds, REPEATS / store_seconds)
    table.print()

    refresh_table = ResultTable(
        "E15: incremental refresh cost vs changed fraction",
        ["changed_fraction", "sources_extracted", "refresh_seconds"])
    for fraction, n_changed in CHURN_STEPS:
        scenario, s2s = build_world(store=True)
        s2s.materialize("SELECT product")
        for org in scenario.organizations[:n_changed]:
            mutate(scenario, org)
        started = time.perf_counter()
        result, = s2s.refresh_store()
        elapsed = time.perf_counter() - started
        assert len(result.extracted_sources) == n_changed
        refresh_table.add_row(fraction, len(result.extracted_sources),
                              elapsed)
    refresh_table.print()


def test_e15_store_cost_report(tmp_path):
    """In-process, no floor: a first materialize, a warm load of what it
    saved, and the first SPARQL query after a one-source refresh."""
    costs: dict[str, list[float]] = {"first materialize": [],
                                     "warm store.load": [],
                                     "first SPARQL after a refresh": []}
    for run in range(ITERATIONS):
        scenario = B2BScenario(**COST_WORLD)
        s2s = scenario.build_middleware(store=True)
        costs["first materialize"].append(
            _timed(lambda: s2s.materialize("SELECT product")))
        directory = str(tmp_path / f"run{run}")
        s2s.store.save(directory)
        fresh = scenario.build_middleware(store=True)
        costs["warm store.load"].append(
            _timed(lambda: fresh.store.load(directory)))
        s2s.materialize("SELECT watch WHERE price < 100")
        s2s.sparql(PROVENANCE)  # every slice indexed
        mutate(scenario, next(org for org in scenario.organizations
                              if org.source_type == "xml"))
        assert s2s.refresh_store()[0].extracted_sources
        costs["first SPARQL after a refresh"].append(
            _timed(lambda: s2s.sparql(PROVENANCE)))
    table = ResultTable(
        f"E15: store costs, in-process ({COST_WORLD['n_sources']} sources, "
        f"{COST_WORLD['n_products']} records, best of {ITERATIONS})",
        ["step", "ms"])
    for step, seconds in costs.items():
        table.add_row(step, min(seconds) * 1e3)
    table.print()


def test_e15_store_speedup_floor():
    """Acceptance criterion: store-served repeat queries >= 5x faster."""
    _scenario, live = build_world()
    _scenario, stored = build_world(store=True)
    run_repeats(live, 2)
    run_repeats(stored, 2)
    live_seconds = best_of(ITERATIONS, lambda: run_repeats(live))
    store_seconds = best_of(ITERATIONS, lambda: run_repeats(stored))
    speedup = live_seconds / store_seconds
    assert speedup >= 5.0, (
        f"store speedup {speedup:.2f}x below the 5x floor")


def test_e15_refresh_touches_only_the_changed_source():
    """Acceptance criterion: a 1-changed-source refresh re-extracts only
    that source — proven by the refresh span tree and by the untouched
    sources' access counters, not by timing."""
    scenario = B2BScenario(n_sources=4, n_products=N_PRODUCTS, seed=7)
    tracer = Tracer()
    s2s = scenario.build_middleware(tracer=tracer, store=True)
    s2s.materialize("SELECT product")

    org = next(o for o in scenario.organizations
               if o.source_id == "database_0")
    mutate(scenario, org)
    fetches_before = scenario.web.total_fetches

    result, = s2s.refresh_store()
    assert result.extracted_sources == ["database_0"]
    assert sorted(result.unchanged) == ["textfile_3", "webpage_2", "xml_1"]

    # Span tree: the diff stage saw four sources, the extraction fan-out
    # visited exactly one.
    diff = result.trace.find("diff")
    verdicts = {span.attributes["source"]: span.attributes["verdict"]
                for span in diff.find_all("source")}
    assert verdicts == {"database_0": "changed", "xml_1": "unchanged",
                        "webpage_2": "unchanged",
                        "textfile_3": "unchanged"}
    extract = result.trace.find("extract")
    assert {span.attributes["source"]
            for span in extract.find_all("source")} == {"database_0"}

    # Access counters: the web source was never fetched during the
    # refresh (the fingerprint probe uses the non-counting peek()).
    assert scenario.web.total_fetches == fetches_before

    served = s2s.query("SELECT product")
    assert served.store_hit
    countries = {entity.value("country") for entity in served.entities
                 if entity.source_id == "database_0"}
    assert countries == {"Atlantis"}


def test_e15_refresh_writes_only_the_changed_records():
    """Acceptance criterion: a re-extracted source changes the store's
    triples only where its records changed — not at all when its
    fingerprint changed but its entities did not, one record's worth
    when one record did."""
    scenario = B2BScenario(n_sources=4, n_products=N_PRODUCTS, seed=7)
    s2s = scenario.build_middleware(store=True)
    s2s.materialize("SELECT product")
    org = next(o for o in scenario.organizations
               if o.source_id == "database_0")
    mat, = s2s.store.materializations()
    before = {entity.record_index: entity
              for entity in mat.slices["database_0"].entities}

    # A table no rule reads: a new fingerprint, the same entities.
    graph = set(s2s.store.graph)
    org.database.execute("CREATE TABLE touched (n INTEGER)")
    result, = s2s.refresh_store()
    assert result.extracted_sources == ["database_0"]
    assert set(s2s.store.graph) == graph

    # One record's price changes.
    fields = org.native_fields
    org.database.execute(
        f"UPDATE products SET {fields['price']} = '1.00' "
        f"WHERE {fields['model']} = '{org.products[0].model}'")
    s2s.refresh_store()
    after = {entity.record_index: entity
             for entity in mat.slices["database_0"].entities}
    moved = [index for index in after
             if after[index].value("price") != before[index].value("price")]
    assert len(moved) == 1
    record = after[moved[0]]
    changed = graph ^ set(s2s.store.graph)
    assert {triple.subject for triple in changed} == {
        s2s.store.namespace[record.primary.identifier]}
    assert len(changed) == 2  # the old price out, the new one in
