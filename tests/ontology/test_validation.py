"""Tests for individual-vs-schema validation."""

from repro.ontology import Reasoner, validate_individual, validate_ontology
from repro.ontology.model import Individual


class TestValidateIndividual:
    def test_valid_individual(self, ontology):
        individual = ontology.add_individual(
            "w1", "watch", {"brand": "Seiko", "case": "steel",
                            "price": 199.0})
        report = validate_individual(ontology, individual)
        assert report.valid

    def test_unknown_class(self, ontology):
        report = validate_individual(ontology, Individual("x", "ghost"))
        assert not report.valid
        assert "unknown class" in report.problems[0]

    def test_undeclared_attribute(self, ontology):
        individual = Individual("w1", "watch", {"color": "blue"})
        report = validate_individual(ontology, individual)
        assert any("undeclared attribute" in p for p in report.problems)

    def test_bad_value_type(self, ontology):
        individual = Individual("w1", "watch", {"price": "cheap"})
        report = validate_individual(ontology, individual)
        assert any("price" in p for p in report.problems)

    def test_functional_attribute_multivalued(self, ontology):
        individual = Individual("w1", "watch",
                                {"brand": ["Seiko", "Casio"]})
        report = validate_individual(ontology, individual)
        assert any("functional" in p for p in report.problems)

    def test_undeclared_link(self, ontology):
        w = Individual("w1", "watch")
        p = Individual("p1", "provider")
        w.link("ghostLink", p)
        report = validate_individual(ontology, w)
        assert any("undeclared object property" in p_
                   for p_ in report.problems)

    def test_link_range_violation(self, ontology):
        w = Individual("w1", "watch")
        other = Individual("w2", "watch")
        w.link("hasProvider", other)  # range should be provider
        report = validate_individual(ontology, w)
        assert any("expected 'provider'" in p for p in report.problems)

    def test_link_to_subclass_of_range_ok(self, ontology):
        ontology.add_class("premium_provider", parent="provider")
        w = Individual("w1", "watch")
        p = Individual("p1", "premium_provider")
        w.link("hasProvider", p)
        assert validate_individual(ontology, w).valid

    def test_passed_reasoner_reports_identically(self, ontology):
        """A shared reasoner only saves rebuilding the class tables:
        every check still runs, for every individual, in the same order."""
        provider = Individual("p1", "provider", {"name": ["Acme", "Apex"]})
        broken = Individual("w1", "watch", {
            "brand": ["Seiko", "Casio"], "price": "cheap", "color": "blue",
            "water_resistance": ["200", "deep"]})
        broken.link("hasProvider", provider)
        broken.link("hasProvider", Individual("w2", "watch"))
        broken.link("ghostLink", Individual("g", "ghost"))
        shared = Reasoner(ontology)
        for individual in (broken, provider, broken,
                           Individual("x", "ghost"),
                           Individual("ok", "watch", {"brand": "Seiko"})):
            alone = validate_individual(ontology, individual)
            reused = validate_individual(ontology, individual,
                                         reasoner=shared)
            assert reused.problems == alone.problems
        assert len(validate_individual(ontology, broken,
                                       reasoner=shared).problems) == 7


class TestValidateOntology:
    def test_aggregates_problems(self, ontology):
        ontology.add_individual("ok", "watch", {"brand": "Seiko"})
        ontology.add_individual("bad", "watch", {"price": "NaN$"})
        report = validate_ontology(ontology)
        assert len(report.problems) == 1

    def test_empty_ontology_valid(self, ontology):
        assert validate_ontology(ontology).valid
