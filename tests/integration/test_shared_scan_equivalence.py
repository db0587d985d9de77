"""Batched extraction is invisible above the source.

Sources that advertise ``execute_rules`` (XML, relational) are run one
batch per source by the Extractor Manager.  Everything the manager
*reports* must be what it reports when the same sources are run one rule
at a time: record sets, problems, per-source health, and the span tree
(one ``attempt`` span per entry).  The per-rule world is built by hiding
the capability behind a plain delegating wrapper — which is also how any
third-party wrapper that predates the capability behaves.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.config import ConcurrencyConfig, ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.errors import TransientSourceError
from repro.ids import AttributePath
from repro.obs import Tracer
from repro.ontology.builders import watch_domain_ontology
from repro.sources.base import DataSource
from repro.sources.xmlstore import XmlDataSource, XmlDocumentStore
from repro.workloads import B2BScenario

ENGINES = {"serial": "serial", "thread": "thread",
           "sharded": ConcurrencyConfig.sharded(2)}


class PerRuleOnly(DataSource):
    """A plain delegating wrapper: the inner source, minus
    ``execute_rules``."""

    def __init__(self, inner: DataSource) -> None:
        super().__init__(inner.source_id)
        self.inner = inner

    @property
    def source_type(self) -> str:  # type: ignore[override]
        return self.inner.source_type

    def execute_rule(self, rule: str) -> list[str]:
        return self.inner.execute_rule(rule)

    def consume_execution_detail(self):
        hook = getattr(self.inner, "consume_execution_detail", None)
        return hook() if hook is not None else None

    def connection_info(self):
        return self.inner.connection_info()

    def content_fingerprint(self):
        return self.inner.content_fingerprint()


BROKEN = {"xml": ExtractionRule.xpath("doc:ghost.xml //item/model"),
          "database": ExtractionRule.sql("SELECT ghost FROM products")}


def world(engine: str, *, hidden: bool, broken: bool):
    scenario = B2BScenario(n_sources=4, n_products=24, seed=7)
    s2s = scenario.build_middleware(concurrency=ENGINES[engine])
    broke = []
    for org in scenario.organizations:
        if broken and org.source_type in BROKEN:
            s2s.register_attribute(("product", "model"),
                                   BROKEN[org.source_type], org.source_id,
                                   replace=True)
            broke.append(org.source_id)
        if hidden:
            s2s.source_repository.register(
                PerRuleOnly(s2s.source_repository.get(org.source_id)),
                replace=True)
    return s2s, broke


def spans(span) -> Counter:
    """Multiset of (span name, source) over a span tree."""
    found = Counter([(span.name, span.attributes.get("source"))])
    for child in span.children:
        found += spans(child)
    return found


def batched_attempts(span) -> int:
    own = int(span.name == "attempt"
              and span.attributes.get("batched") is True)
    return own + sum(batched_attempts(child) for child in span.children)


def observe(s2s) -> dict:
    """One traced extraction of every mapped attribute, flattened."""
    manager = s2s.manager
    required = [AttributePath.parse(attribute_id)
                for attribute_id in manager.attributes.attribute_ids()]
    root = Tracer(keep_last=0).start("extract")
    outcome = manager.extract(required, span=root)
    root.finish()
    return {
        "records": {
            source_id: [(str(fragment.attribute), fragment.values)
                        for fragment in record_set.fragments]
            for source_id, record_set in outcome.record_sets.items()},
        "problems": sorted((p.source_id, p.attribute_id, p.message)
                           for p in outcome.problems),
        "health": outcome.health,
        "spans": spans(root),
        "batched": batched_attempts(root),
        "retries": manager.retry_count,
        "breakers": s2s.open_breakers(),
    }


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_manager_reports_the_same_with_and_without_batches(engine, broken):
    observed = {}
    for hidden in (False, True):
        s2s, broke = world(engine, hidden=hidden, broken=broken)
        try:
            observed[hidden] = [observe(s2s), observe(s2s)]
        finally:
            s2s.close()
    batched_count = observed[False][0]["batched"]
    for batched, per_rule in zip(observed[False], observed[True]):
        assert per_rule.pop("batched") == 0
        del batched["batched"]
        assert batched == per_rule
    first = observed[False][0]
    # one attempt per entry, in the ledger and — where the engine brings
    # the workers' spans home (the fleet does not) — in the trace
    assert all(health.attempts == 8 for health in first["health"].values())
    attempts = {source: count for (name, source), count
                in first["spans"].items() if name == "attempt"}
    assert all(count == 8 for count in attempts.values())
    assert len(attempts) == (0 if engine == "sharded" else 4)
    if broken:
        # the problem names the broken attribute, and only it; its
        # source fell back to per-rule extraction
        assert [(p[0], p[1]) for p in first["problems"]] == [
            (source_id, "thing.product.model") for source_id in sorted(broke)]
        assert all(first["health"][sid].failures == 1 for sid in broke)
    else:
        assert not first["problems"]
        # xml and database sources: every entry served out of a batch
        assert batched_count == (0 if engine == "sharded" else 16)
    assert first["retries"] == 0 and first["breakers"] == []


class BatchAlwaysFlaps(XmlDataSource):
    """A source whose batches fail transiently and whose single rules
    work: the failure must leave no trace in the run."""

    def execute_rules(self, rules):
        if len(rules) > 1:
            raise TransientSourceError("batch transport flapped")
        return super().execute_rules(rules)


@pytest.mark.parametrize("engine", ["serial"])
def test_a_failed_batch_touches_no_health_breaker_or_retry_budget(engine):
    scenario = B2BScenario(n_sources=4, n_products=24, seed=7)
    # one counted transient failure would open the breaker and, with no
    # retries allowed, lose the attribute
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(failure_threshold=1, cooldown_seconds=60.0))
    observed = {}
    for flapping in (False, True):
        s2s = scenario.build_middleware(concurrency=engine,
                                        resilience=config)
        for org in scenario.organizations:
            if flapping and org.source_type == "xml":
                inner = s2s.source_repository.get(org.source_id)
                s2s.source_repository.register(
                    BatchAlwaysFlaps(org.source_id, inner.store,
                                     default_document="catalog.xml"),
                    replace=True)
        try:
            observed[flapping] = observe(s2s)
            assert s2s.manager.breakers.get("xml_1").state == "closed"
        finally:
            s2s.close()
    assert observed[True]["batched"] < observed[False]["batched"]
    for run in observed.values():
        del run["batched"]
    assert observed[True] == observed[False]
    health = observed[True]["health"]["xml_1"]
    assert (health.attempts, health.successes, health.failures,
            health.retries) == (8, 8, 0, 0)


def test_query_over_an_attribute_identical_on_every_record():
    """End to end: ``@currency``-style attributes used to collapse to one
    value, and the Instance Generator paired records positionally with
    the wrong (or no) value — without any error."""
    store = XmlDocumentStore("inbox")
    store.put("c.xml", "<c>" + "".join(
        f'<item currency="EUR"><brand>{brand}</brand></item>'
        for brand in ("Seiko", "Casio", "Orient")) + "</c>")
    s2s = S2SMiddleware(watch_domain_ontology())
    s2s.register_source(XmlDataSource("X", store))
    s2s.register_attribute(("product", "brand"),
                           ExtractionRule.xpath("//item/brand"), "X")
    s2s.register_attribute(("product", "model"),
                           ExtractionRule.xpath("//item/@currency"), "X")
    result = s2s.query("SELECT product")
    assert [(entity.value("brand"), entity.value("model"))
            for entity in result.entities] == [
        ("Seiko", "EUR"), ("Casio", "EUR"), ("Orient", "EUR")]
    assert not [entry for entry in result.errors.entries
                if entry.phase != "mapping"]
