"""Seeded worlds for the four ledger workloads.

:func:`make_spec` draws every input a workload needs — brands, price
cut-offs, mutation order, update keys — from ``--seed`` and returns a
JSON-safe dict.  :func:`build_world` turns a spec into live middleware
through the public API only; the server launcher, the oracle and the
layer replay all build from the same spec, so they see identical data.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field

from repro import ExtractionRule, S2SMiddleware
from repro.clock import SystemClock
from repro.config import ConcurrencyConfig, FleetConfig
from repro.core.cluster import QueryShardCoordinator
from repro.obs import MetricsRegistry
from repro.ontology.builders import watch_domain_ontology
from repro.sources.relational import Database, RelationalDataSource
from repro.workloads import B2BScenario, generate_products
from repro.workloads.catalog import PROVIDERS
from repro.workloads.scaling import slow_source_world

WORKLOADS = ("wire_live_mixed", "wire_store_churn", "wire_fleet_slow",
             "local_sql_join")

#: closed-loop client count per workload (nproc is 2)
CLIENTS = {"wire_live_mixed": 2, "wire_store_churn": 2,
           "wire_fleet_slow": 2, "local_sql_join": 1}

SPARQL_PROVENANCE = ("PREFIX store: <http://example.org/s2s/store#> "
                     "SELECT ?s ?src WHERE { ?s store:source ?src }")

FLEET_WORKERS = 4
FLEET_LATENCY_SECONDS = 0.002
WRITER_PERIOD_SECONDS = 0.5
SQL_ROWS = 5000
SQL_PROVIDERS = 50
SQL_BUCKETS = 50  # one bucket = 2 % of the rows


def peak_rss_mb() -> float:
    """Peak resident set of this process, from ``VmHWM``.  Not
    ``ru_maxrss``: that survives fork and exec, so a launcher would
    start from its harness's peak instead of its own."""
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ledger:{workload}:{seed}")


def _price_cutoff(prices: list[float], rng: random.Random) -> float:
    """A cut-off keeping 8-15 % of the catalog, placed mid-gap so that
    per-organization price-unit round trips cannot flip a record."""
    ordered = sorted(prices)
    k = max(1, int(len(ordered) * rng.uniform(0.08, 0.15)))
    while k < len(ordered) - 1 and ordered[k] - ordered[k - 1] < 0.2:
        k += 1
    return round((ordered[k - 1] + ordered[k]) / 2, 2)


def _common_brand(catalogs: list[list], rng: random.Random) -> str:
    shared = set.intersection(*({p.brand for p in catalog}
                                for catalog in catalogs))
    return rng.choice(sorted(shared))


def make_spec(workload: str, seed: int) -> dict:
    """Everything ``workload`` needs, drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{WORKLOADS}")
    rng = _rng(workload, seed)
    # a world whose sources sleep waits on the clock, not on the CPU: its
    # timings are not carried to the reference box speed (harness.end_to_end)
    spec: dict = {"workload": workload, "seed": seed,
                  "cpu_bound": workload != "wire_fleet_slow"}
    if workload in ("wire_live_mixed", "wire_store_churn"):
        catalog = generate_products(400, seed=seed)
        brand = _common_brand([catalog], rng)
        cutoff = _price_cutoff([p.price for p in catalog], rng)
        shapes = [
            {"name": "product_all", "s2sql": "SELECT product"},
            {"name": "product_brand", "brand": brand,
             "s2sql": f'SELECT product WHERE brand = "{brand}"'},
            {"name": "watch_price", "price_below": cutoff,
             "s2sql": f"SELECT watch WHERE price < {cutoff}"},
        ]
        spec.update(scenario={"n_sources": 8, "n_products": 400,
                              "seed": seed},
                    tenants=["hub"])
        if workload == "wire_live_mixed":
            shapes.append({**shapes[1], "name": "product_brand_prepared",
                           "prepared": True})
            spec.update(store=False)
        else:
            shapes.append({"name": "sparql_provenance",
                           "sparql": SPARQL_PROVENANCE})
            spec.update(store=True,
                        mutation_order=rng.sample(range(8), 8),
                        writer_period_seconds=WRITER_PERIOD_SECONDS,
                        ingest_queries=[shapes[0]["s2sql"],
                                        shapes[2]["s2sql"]])
        spec["shapes"] = {"hub": shapes}
    elif workload == "wire_fleet_slow":
        tenants = ["tenant0", "tenant1"]
        spec.update(tenants=tenants, shapes={}, scenarios={},
                    fleet={"n_workers": FLEET_WORKERS,
                           "latency_seconds": FLEET_LATENCY_SECONDS})
        for index, tenant in enumerate(tenants):
            scenario = {"n_sources": 12, "n_products": 48,
                        "seed": seed + index}
            brand = _common_brand(
                [generate_products(48, seed=seed + index)], rng)
            spec["scenarios"][tenant] = scenario
            spec["shapes"][tenant] = [
                {"name": "product_brand", "brand": brand,
                 "s2sql": f'SELECT product WHERE brand = "{brand}"'}]
    else:
        spec.update(tenants=["local"], bucket=rng.randrange(SQL_BUCKETS),
                    sql_seeds=[seed, seed + 1],
                    update_keys=[[rng.randrange(2), key] for key in
                                 rng.sample(range(SQL_ROWS), 64)],
                    shapes={"local": [{"name": "product_all",
                                       "s2sql": "SELECT product"}]})
    return spec


@dataclass
class World:
    """Live middleware per tenant plus the handles writers need."""

    spec: dict
    tenants: dict[str, S2SMiddleware]
    scenarios: dict[str, B2BScenario] = field(default_factory=dict)
    databases: list[Database] = field(default_factory=list)
    sql_rows: list[list] = field(default_factory=list)
    fleet: QueryShardCoordinator | None = None
    fleet_metrics: MetricsRegistry | None = None
    _pristine: dict[str, str] = field(default_factory=dict)
    _mutations: int = 0
    _updates: int = 0

    def close(self) -> None:
        for middleware in self.tenants.values():
            middleware.close()
        if self.fleet is not None:
            self.fleet.shutdown()

    # -- writers -----------------------------------------------------------

    def mutate_next_source(self) -> str:
        """Change the next source's fingerprint (seeded round-robin)
        without changing what its rules extract, so the oracle holds."""
        order = self.spec["mutation_order"]
        self._mutations += 1
        stamp = self._mutations
        scenario = self.scenarios["hub"]
        org = scenario.organizations[order[stamp % len(order)]]
        if org.source_type == "database":
            if not org.database.has_table("ledger_touch"):
                org.database.execute("CREATE TABLE ledger_touch (n INTEGER)")
                org.database.execute(
                    "INSERT INTO ledger_touch (n) VALUES (0)")
            org.database.execute(f"UPDATE ledger_touch SET n = {stamp}")
        elif org.source_type == "xml":
            document = self._original(
                org.source_id, lambda: org.xml_store.export("catalog.xml"))
            org.xml_store.put("catalog.xml", document.replace(
                "</catalog>", f"<touched>{stamp}</touched></catalog>"))
        elif org.source_type == "webpage":
            page = self._original(org.source_id,
                                  lambda: scenario.web.peek(org.url))
            scenario.web.publish(org.url, f"{page}<!-- touched {stamp} -->")
        else:
            content = self._original(
                org.source_id, lambda: org.text_store.read("inventory.txt"))
            org.text_store.write("inventory.txt",
                                 f"{content}\n# touched {stamp}")
        return org.source_id

    def _original(self, source_id: str, read) -> str:
        """The source's content before the first mutation; every stamp
        is applied to it, so documents do not grow over a run."""
        if source_id not in self._pristine:
            self._pristine[source_id] = read()
        return self._pristine[source_id]

    def next_update_sql(self) -> tuple[Database, str]:
        """The next answer-preserving UPDATE: rewrites one row's price
        with its current value, which still invalidates the table's
        cached row view."""
        keys = self.spec["update_keys"]
        source, key = keys[self._updates % len(keys)]
        self._updates += 1
        price = self.sql_rows[source][key]["price"]
        return (self.databases[source],
                f"UPDATE products SET price = {price!r} WHERE id = {key}")


def build_world(spec: dict, *, oracle: bool = False) -> World:
    """The workload's world, or (``oracle=True``) the plain serial
    no-store, no-fleet, no-sleep world over the same data that the
    expected answers come from."""
    workload = spec["workload"]
    with warnings.catch_warnings():
        # B2BScenario-based builders still pass a deprecated kwarg
        warnings.simplefilter("ignore", DeprecationWarning)
        if workload in ("wire_live_mixed", "wire_store_churn"):
            scenario = B2BScenario(**spec["scenario"])
            middleware = scenario.build_middleware(
                store=spec["store"] and not oracle)
            return World(spec, {"hub": middleware}, {"hub": scenario})
        if workload == "wire_fleet_slow":
            return _build_fleet_world(spec, oracle)
        return _build_sql_world(spec, oracle)


def _build_fleet_world(spec: dict, oracle: bool) -> World:
    if oracle:
        scenarios = {tenant: B2BScenario(**params)
                     for tenant, params in spec["scenarios"].items()}
        return World(spec, {tenant: scenario.build_middleware()
                            for tenant, scenario in scenarios.items()},
                     scenarios)
    config = FleetConfig(n_workers=spec["fleet"]["n_workers"])
    metrics = MetricsRegistry()
    fleet = QueryShardCoordinator(clock=SystemClock(), fleet=config,
                                  metrics=metrics)
    tenants = {}
    for tenant, params in spec["scenarios"].items():
        middleware = slow_source_world(
            ConcurrencyConfig.sharded(fleet=config),
            latency_seconds=spec["fleet"]["latency_seconds"], **params)
        middleware.attach_fleet(fleet, tenant=tenant)
        tenants[tenant] = middleware
    return World(spec, tenants, fleet=fleet, fleet_metrics=metrics)


_SQL_COLUMNS = {("product", "brand"): "brand", ("product", "model"): "model",
                ("product", "price"): "price", ("watch", "case"): "casing",
                ("watch", "movement"): "movement",
                ("watch", "water_resistance"): "water"}
_SQL_JOINED = {("provider", "name"): "name",
               ("provider", "country"): "country"}


def sql_rules(bucket: int) -> dict[tuple[str, str], str]:
    """The eight attribute rules of one SQL source: six single-table
    filter+project scans and two ``JOIN providers``, one predicate."""
    rules = {attribute: f"SELECT {column} FROM products "
                        f"WHERE bucket = {bucket}"
             for attribute, column in _SQL_COLUMNS.items()}
    rules.update({
        attribute: f"SELECT providers.{column} FROM products JOIN providers "
                   f"ON products.provider_id = providers.id "
                   f"WHERE products.bucket = {bucket}"
        for attribute, column in _SQL_JOINED.items()})
    return rules


def _build_sql_world(spec: dict, oracle: bool) -> World:
    middleware = S2SMiddleware(watch_domain_ontology())
    world = World(spec, {"local": middleware})
    for index, seed in enumerate(spec["sql_seeds"]):
        # the oracle runs the row engine: an independent executor
        database = Database(f"sql_{index}",
                            engine="row" if oracle else "columnar")
        database.execute("CREATE TABLE providers (id INTEGER, name TEXT, "
                         "country TEXT)")
        database.execute(
            "CREATE TABLE products (id INTEGER, bucket INTEGER, brand TEXT, "
            "model TEXT, price REAL, casing TEXT, movement TEXT, "
            "water INTEGER, provider_id INTEGER)")
        providers = database.require_table("providers")
        for number in range(SQL_PROVIDERS):
            name, country = PROVIDERS[number % len(PROVIDERS)]
            providers.insert({"id": number, "name": f"{name} {number}",
                              "country": country})
        products = database.require_table("products")
        rows = []
        for product in generate_products(SQL_ROWS, seed=seed):
            rows.append({
                "id": product.product_id,
                "bucket": product.product_id % SQL_BUCKETS,
                "brand": product.brand, "model": product.model,
                "price": product.price, "casing": product.case,
                "movement": product.movement,
                "water": product.water_resistance,
                "provider_id": (product.product_id * 7) % SQL_PROVIDERS})
            products.insert(rows[-1])
        source_id = f"database_{index}"
        middleware.register_source(RelationalDataSource(source_id, database))
        for attribute, code in sql_rules(spec["bucket"]).items():
            middleware.register_attribute(attribute, ExtractionRule.sql(code),
                                          source_id)
        world.databases.append(database)
        world.sql_rows.append(rows)
    return world
