"""Tests for the ontology object model."""

import pytest

from repro.errors import OntologyError
from repro.ontology import Ontology


@pytest.fixture
def onto():
    o = Ontology("test", "http://t.org/v#")
    o.add_class("thing")
    o.add_class("product", parent="thing")
    o.add_class("watch", parent="product")
    o.add_class("provider", parent="thing")
    o.add_attribute("product", "brand")
    o.add_attribute("product", "price", "double")
    o.add_attribute("watch", "case")
    o.add_attribute("provider", "name")
    o.add_object_property("product", "hasProvider", "provider")
    return o


class TestClasses:
    def test_name_required(self):
        with pytest.raises(OntologyError):
            Ontology("")

    def test_base_iri_normalized(self):
        assert Ontology("x", "http://t.org/v").base_iri == "http://t.org/v#"

    def test_duplicate_class_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_class("watch")

    def test_unknown_parent_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_class("x", parent="nope")

    def test_roots(self, onto):
        assert [c.name for c in onto.roots()] == ["thing"]

    def test_children_of(self, onto):
        names = {c.name for c in onto.children_of("thing")}
        assert names == {"product", "provider"}

    def test_ancestors(self, onto):
        assert onto.ancestors("watch") == ["product", "thing"]
        assert onto.ancestors("thing") == []

    def test_lineage_root_to_class(self, onto):
        assert onto.lineage("watch") == ["thing", "product", "watch"]

    def test_require_class_error_mentions_ontology(self, onto):
        with pytest.raises(OntologyError) as excinfo:
            onto.require_class("ghost")
        assert "test" in str(excinfo.value)

    def test_iri_for_class(self, onto):
        assert onto.iri_for_class("watch").value == "http://t.org/v#watch"


class TestAttributes:
    def test_duplicate_attribute_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_attribute("product", "brand")

    def test_bad_range_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_attribute("product", "weird", "complex128")

    def test_own_attributes(self, onto):
        assert [a.name for a in onto.own_attributes("watch")] == ["case"]

    def test_all_attributes_include_inherited(self, onto):
        names = {a.name for a in onto.all_attributes("watch")}
        assert names == {"brand", "price", "case"}

    def test_all_attributes_on_root(self, onto):
        assert onto.all_attributes("thing") == []

    def test_find_attribute_inherited(self, onto):
        prop = onto.find_attribute("watch", "brand")
        assert prop is not None and prop.domain == "product"

    def test_find_attribute_missing(self, onto):
        assert onto.find_attribute("watch", "nope") is None

    def test_shadowing_prefers_most_specific(self, onto):
        onto.add_attribute("watch", "price", "integer")
        prop = onto.find_attribute("watch", "price")
        assert prop.domain == "watch" and prop.range == "integer"


class TestObjectProperties:
    def test_duplicate_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_object_property("product", "hasProvider", "provider")

    def test_unknown_range_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_object_property("product", "link", "ghost")

    def test_inherited_by_subclass(self, onto):
        names = {p.name for p in onto.all_object_properties("watch")}
        assert names == {"hasProvider"}


class TestIndividuals:
    def test_add_and_get(self, onto):
        onto.add_individual("w1", "watch", {"brand": "Seiko"})
        assert onto.individual("w1").values["brand"] == "Seiko"

    def test_duplicate_identifier_rejected(self, onto):
        onto.add_individual("w1", "watch")
        with pytest.raises(OntologyError):
            onto.add_individual("w1", "watch")

    def test_unknown_class_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_individual("x", "ghost")

    def test_individuals_by_class_with_subclasses(self, onto):
        onto.add_individual("w1", "watch")
        onto.add_individual("p1", "product")
        assert len(onto.individuals("product")) == 2
        assert len(onto.individuals("product",
                                    include_subclasses=False)) == 1

    def test_individuals_all(self, onto):
        onto.add_individual("w1", "watch")
        onto.add_individual("prov1", "provider")
        assert len(onto.individuals()) == 2

    def test_link_and_set_chainable(self, onto):
        w = onto.add_individual("w1", "watch")
        p = onto.add_individual("prov1", "provider")
        w.set("brand", "Seiko").link("hasProvider", p)
        assert w.links["hasProvider"] == [p]

    def test_missing_individual_raises(self, onto):
        with pytest.raises(OntologyError):
            onto.individual("ghost")
