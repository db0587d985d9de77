"""Tests for the comparison systems (paper sections 4-5)."""

import pytest

from repro.baselines import FederatedQuerier, SyntacticIntegrator, W4fWrapper
from repro.errors import PageNotFoundError, S2SError
from repro.sources.relational import RelationalDataSource
from repro.sources.web import SimulatedWeb


class TestSyntacticIntegrator:
    @pytest.fixture
    def integrator(self, watch_db):
        integrator = SyntacticIntegrator()
        integrator.add_source(
            RelationalDataSource("DB_1", watch_db),
            {"brand": "SELECT brand FROM watches",
             "casing": "SELECT casing FROM watches"})
        return integrator

    def test_materialize_unions_records(self, integrator):
        records = integrator.materialize()
        assert len(records) == 3
        assert records[0].source_id == "DB_1"
        assert records[0].get("brand") == "Seiko"

    def test_query_exact_string_match(self, integrator):
        assert len(integrator.query(brand="Seiko")) == 2
        assert len(integrator.query(brand="SEIKO")) == 0  # no normalization

    def test_query_requires_shared_field_name(self, integrator):
        # The concept is 'case' but this source calls it 'casing': a query
        # using another source's name silently misses.
        assert integrator.query(case_material="stainless-steel") == []
        assert len(integrator.query(casing="stainless-steel")) == 2

    def test_failing_source_contributes_nothing(self, watch_db):
        integrator = SyntacticIntegrator()
        integrator.add_source(
            RelationalDataSource("DB_1", watch_db),
            {"brand": "SELECT ghost FROM watches"})
        assert integrator.materialize() == []

    def test_field_names_union(self, integrator, watch_db):
        integrator.add_source(
            RelationalDataSource("DB_2", watch_db),
            {"marke": "SELECT brand FROM watches"})
        assert integrator.field_names() == {"brand", "casing", "marke"}

    def test_empty_fields_rejected(self, watch_db):
        integrator = SyntacticIntegrator()
        with pytest.raises(S2SError):
            integrator.add_source(RelationalDataSource("DB_1", watch_db), {})

    def test_no_semantic_normalization_on_heterogeneous_world(self, scenario):
        # On the full conflict scenario, a raw-value query only reaches
        # sources publishing the canonical spelling.
        syntactic = scenario.build_syntactic_baseline()
        truth = len(scenario.expected_matches(
            lambda p: p.case == "stainless-steel"))
        found = 0
        for name in ("case_material", "gehaeuse", "housing"):
            found += len(syntactic.query(**{name: "stainless-steel"}))
        assert found < truth  # non-canonical vocabularies are invisible


class TestFederatedQuerier:
    def test_union_and_predicate(self):
        querier = FederatedQuerier()
        querier.add_source("a", lambda: [{"x": 1}, {"x": 2}])
        querier.add_source("b", lambda: [{"x": 3}])
        assert len(querier.query()) == 3
        assert len(querier.query(lambda r: r["x"] > 1)) == 2

    def test_records_tagged_with_source(self):
        querier = FederatedQuerier()
        querier.add_source("a", lambda: [{"x": 1}])
        assert querier.query()[0]["_source"] == "a"

    def test_duplicate_source_rejected(self):
        querier = FederatedQuerier()
        querier.add_source("a", lambda: [])
        with pytest.raises(ValueError):
            querier.add_source("a", lambda: [])

    def test_matches_s2s_on_scenario(self, scenario):
        federated = scenario.build_federated_baseline()
        s2s = scenario.build_middleware()
        fed_records = federated.query(
            lambda r: r["case"] == "stainless-steel")
        s2s_result = s2s.query('SELECT product WHERE case = "stainless-steel"')
        assert len(fed_records) == len(s2s_result)


class TestW4fWrapper:
    @pytest.fixture
    def web(self):
        simulated = SimulatedWeb()
        simulated.publish("http://shop.example/catalog", """
<table>
<tr><td class="b">Seiko</td><td class="p">199.0</td></tr>
<tr><td class="b">Casio</td><td class="p">15.5</td></tr>
</table>""")
        return simulated

    def test_extract_fields(self, web):
        wrapper = W4fWrapper(web)
        wrapper.add_rule("brand", r'<td class="b">([^<]+)</td>')
        wrapper.add_rule("price", r'<td class="p">([^<]+)</td>')
        extracted = wrapper.extract("http://shop.example/catalog")
        assert extracted["brand"] == ["Seiko", "Casio"]
        assert extracted["price"] == ["199.0", "15.5"]

    def test_xml_output(self, web):
        wrapper = W4fWrapper(web)
        wrapper.add_rule("brand", r'<td class="b">([^<]+)</td>')
        from repro.xmlkit import parse_xml
        doc = parse_xml(wrapper.extract_xml("http://shop.example/catalog"))
        records = doc.root.find_all("record")
        assert len(records) == 2
        assert records[0].find("brand").text == "Seiko"

    def test_rule_needs_capture_group(self, web):
        wrapper = W4fWrapper(web)
        with pytest.raises(S2SError):
            wrapper.add_rule("brand", "no groups here")

    def test_invalid_regex(self, web):
        with pytest.raises(S2SError):
            W4fWrapper(web).add_rule("brand", "([")

    def test_web_only(self, web):
        wrapper = W4fWrapper(web)
        wrapper.add_rule("brand", r'<td class="b">([^<]+)</td>')
        with pytest.raises(PageNotFoundError):
            wrapper.extract("http://not.example/page")

    def test_extract_site(self, web):
        web.publish("http://shop.example/two",
                    '<td class="b">Orient</td>')
        wrapper = W4fWrapper(web)
        wrapper.add_rule("brand", r'<td class="b">([^<]+)</td>')
        results = wrapper.extract_site(["http://shop.example/catalog",
                                        "http://shop.example/two"])
        assert results[1]["brand"] == ["Orient"]

    def test_field_names(self, web):
        wrapper = W4fWrapper(web)
        wrapper.add_rule("z", "(a)")
        wrapper.add_rule("a", "(b)")
        assert wrapper.field_names() == ["a", "z"]
