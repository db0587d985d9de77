"""Tests for namespaces and the prefix manager."""

import pytest

from repro.errors import RdfError
from repro.rdf.namespace import (OWL, RDF, RDFS, XSD, Namespace,
                                 NamespaceManager)
from repro.rdf.terms import IRI


class TestNamespace:
    def test_attribute_access(self):
        ns = Namespace("http://x.org/v#")
        assert ns.brand == IRI("http://x.org/v#brand")

    def test_item_access(self):
        ns = Namespace("http://x.org/v#")
        assert ns["water-resistance"] == IRI("http://x.org/v#water-resistance")

    def test_contains(self):
        ns = Namespace("http://x.org/v#")
        assert ns.brand in ns
        assert IRI("http://other.org/brand") not in ns

    def test_empty_base_rejected(self):
        with pytest.raises(RdfError):
            Namespace("")

    def test_underscore_attribute_raises(self):
        ns = Namespace("http://x.org/v#")
        with pytest.raises(AttributeError):
            ns._private

    def test_equality(self):
        assert Namespace("http://a/") == Namespace("http://a/")
        assert Namespace("http://a/") != Namespace("http://b/")

    def test_well_known_vocabularies(self):
        assert RDF.type.value.endswith("#type")
        assert RDFS.subClassOf.value.endswith("#subClassOf")
        assert OWL.Class.value.endswith("#Class")
        assert XSD.integer.value.endswith("#integer")


class TestNamespaceManager:
    def test_well_known_bound_by_default(self):
        manager = NamespaceManager()
        assert manager.expand("rdf:type") == RDF.type
        assert manager.expand("owl:Class") == OWL.Class

    def test_bind_and_expand(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://example.org/#")
        assert manager.expand("ex:watch") == IRI("http://example.org/#watch")

    def test_expand_unknown_prefix(self):
        manager = NamespaceManager()
        with pytest.raises(RdfError):
            manager.expand("nope:thing")

    def test_expand_requires_colon(self):
        manager = NamespaceManager()
        with pytest.raises(RdfError):
            manager.expand("plainname")

    def test_rebind_conflict_rejected(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://a/")
        with pytest.raises(RdfError):
            manager.bind("ex", "http://b/")

    def test_rebind_same_is_noop(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://a/")
        manager.bind("ex", "http://a/")

    def test_rebind_with_replace(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://a/")
        manager.bind("ex", "http://b/", replace=True)
        assert manager.expand("ex:x") == IRI("http://b/x")

    def test_invalid_prefix_rejected(self):
        manager = NamespaceManager()
        with pytest.raises(RdfError):
            manager.bind("bad prefix", "http://a/")

    def test_compact(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://example.org/v#")
        assert manager.compact(IRI("http://example.org/v#brand")) == "ex:brand"

    def test_compact_unknown_returns_none(self):
        manager = NamespaceManager()
        assert manager.compact(IRI("http://unknown.org/x")) is None

    def test_compact_prefers_longest_base(self):
        manager = NamespaceManager()
        manager.bind("a", "http://example.org/")
        manager.bind("b", "http://example.org/deep/")
        assert manager.compact(IRI("http://example.org/deep/x")) == "b:x"

    def test_namespaces_listing_sorted(self):
        manager = NamespaceManager(include_well_known=False)
        manager.bind("z", "http://z/")
        manager.bind("a", "http://a/")
        assert [prefix for prefix, _ in manager.namespaces()] == ["a", "z"]
