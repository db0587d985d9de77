"""Failure injection: dead sources, broken rules, drifted schemas.

The Instance Generator "is responsible for providing information about any
error that has occurred during the extraction process or in the query"
(section 2.6) — a federated query must degrade, not die.
"""

import json

import pytest

from repro import ExtractionRule
from repro.errors import S2SError, XPathError
from repro.workloads import B2BScenario


class TestDeadSources:
    def test_unpublished_page_degrades_gracefully(self, scenario):
        s2s = scenario.build_middleware()
        web_org = [o for o in scenario.organizations
                   if o.source_type == "webpage"][0]
        scenario.web.unpublish(web_org.url)
        result = s2s.query("SELECT product")
        # the other three sources still answer
        assert len(result) == 15
        assert not result.errors.ok
        assert all(e.source_id != web_org.source_id
                   for e in result.entities)

    def test_database_auth_failure_collected(self, scenario):
        from repro.sources.relational import RelationalDataSource
        s2s = scenario.build_middleware()
        db_org = [o for o in scenario.organizations
                  if o.source_type == "database"][0]
        bad = RelationalDataSource(db_org.source_id, db_org.database,
                                   password="wrong",
                                   expected_password="right")
        s2s.source_repository.register(bad, replace=True)
        result = s2s.query("SELECT product")
        assert len(result) == 15
        assert any("authentication failed" in str(e)
                   for e in result.errors.entries)

    def test_strict_mode_escalates(self, scenario):
        s2s = scenario.build_middleware(strict_extraction=True)
        web_org = [o for o in scenario.organizations
                   if o.source_type == "webpage"][0]
        scenario.web.unpublish(web_org.url)
        with pytest.raises(S2SError):
            s2s.query("SELECT product")

    def test_removed_xml_document_collected(self, scenario):
        s2s = scenario.build_middleware()
        xml_org = [o for o in scenario.organizations
                   if o.source_type == "xml"][0]
        xml_org.xml_store.remove("catalog.xml")
        result = s2s.query("SELECT product")
        assert len(result) == 15
        assert any(e.source_id == xml_org.source_id
                   for e in result.errors.entries)


class TestBrokenRules:
    def test_wrong_arity_xpath_rule_is_one_problem_not_a_crash(self):
        scenario = B2BScenario(n_sources=4, n_products=10)
        s2s = scenario.build_middleware()
        xml_id = next(org.source_id for org in scenario.organizations
                      if org.source_type == "xml")
        bad = "//item[contains(brand)]/model"
        with pytest.raises(XPathError, match="takes 2 arguments"):
            s2s.register_attribute(("product", "model"),
                                   ExtractionRule.xpath(bad), xml_id,
                                   replace=True)
        # A persisted mapping is not re-validated on load: the bad rule
        # reaches extraction and fails there, for its source alone.
        document = json.loads(s2s.dump_mapping())
        for record in document["attributes"]:
            if (record["source"], record["attribute"]) == (
                    xml_id, "thing.product.model"):
                record["rule"]["code"] = bad
        organizations = {org.source_id: org
                         for org in scenario.organizations}
        s2s.load_mapping(json.dumps(document), lambda source_id, info:
                         scenario.connector(organizations[source_id]))
        result = s2s.query("SELECT product")
        assert len(result) == 10
        assert [(e.phase, e.source_id, e.attribute_id)
                for e in result.errors.entries] == [
            ("extraction", xml_id, "thing.product.model")]
        assert "contains() takes 2 arguments" in \
            result.errors.entries[0].message


class TestSchemaDrift:
    def test_drift_invalidates_only_named_attribute(self, scenario):
        s2s = scenario.build_middleware()
        events = scenario.drift(fraction=0.5)
        assert len(events) == 2
        result = s2s.query("SELECT product")
        # all records still come back; the drifted sources lose `brand`
        assert len(result) == 20
        drifted = {e.source_id for e in events}
        for entity in result.entities:
            if entity.source_id in drifted:
                assert entity.value("brand") is None
            else:
                assert entity.value("brand") is not None

    def test_drift_breaks_brand_filtered_queries(self, scenario):
        s2s = scenario.build_middleware()
        baseline = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        scenario.drift(fraction=1.0)
        after = len(s2s.query('SELECT product WHERE brand = "Seiko"'))
        assert after < baseline or baseline == 0

    def test_repair_restores_answers(self, scenario):
        s2s = scenario.build_middleware()
        baseline = {(e.value("brand"), e.value("model"))
                    for e in s2s.query("SELECT product").entities}
        events = scenario.drift(fraction=1.0)
        repaired = scenario.repair_mapping(s2s, events)
        assert repaired == len(events)
        after = {(e.value("brand"), e.value("model"))
                 for e in s2s.query("SELECT product").entities}
        assert after == baseline

    def test_drift_events_carry_invalidated_attribute_ids(self, scenario):
        events = scenario.drift(fraction=0.25)
        assert events[0].invalidated_attributes == ["thing.product.brand"]


class TestPartialMappings:
    def test_unmapped_attribute_reported_per_query(self, scenario):
        s2s = scenario.build_middleware()
        s2s.attribute_repository.remove("thing.provider.country")
        result = s2s.query("SELECT product")
        assert any("thing.provider.country" in str(e)
                   for e in result.errors.by_phase("mapping"))
        assert len(result) == 20

    def test_coverage_reflects_removal(self, scenario):
        s2s = scenario.build_middleware()
        assert s2s.mapping_coverage() == 1.0
        s2s.attribute_repository.remove("thing.provider.country")
        assert s2s.mapping_coverage() == pytest.approx(7 / 8)
        assert s2s.unmapped_attributes() == ["thing.provider.country"]
