"""Tests for the attribute-path schema view (paper Figure 4)."""

import pytest

from repro.errors import OntologyError


class TestAttributePaths:
    def test_paper_paths_present(self, schema):
        paths = {str(p) for p in schema.attribute_paths()}
        assert "thing.product.brand" in paths
        assert "thing.product.watch.case" in paths
        assert "thing.provider.name" in paths

    def test_paths_sorted(self, schema):
        paths = [str(p) for p in schema.attribute_paths()]
        assert paths == sorted(paths)

    def test_paths_for_class_own_only(self, schema):
        paths = {str(p) for p in schema.paths_for_class(
            "watch", include_inherited=False)}
        assert paths == {"thing.product.watch.case",
                         "thing.product.watch.movement",
                         "thing.product.watch.water_resistance"}

    def test_paths_for_class_with_inherited(self, schema):
        paths = {str(p) for p in schema.paths_for_class("watch")}
        assert "thing.product.brand" in paths
        assert "thing.product.watch.case" in paths

    def test_resolve(self, schema):
        owner, prop = schema.resolve("thing.product.watch.case")
        assert owner == "watch" and prop.name == "case"

    def test_resolve_unknown_raises(self, schema):
        with pytest.raises(OntologyError):
            schema.resolve("thing.product.ghost")

    def test_has_path(self, schema):
        assert schema.has_path("thing.product.brand")
        assert not schema.has_path("thing.product.ghost")

    def test_path_for_direct(self, schema):
        path = schema.path_for("watch", "case")
        assert str(path) == "thing.product.watch.case"

    def test_path_for_inherited_uses_declaring_class(self, schema):
        path = schema.path_for("watch", "brand")
        assert str(path) == "thing.product.brand"

    def test_path_for_missing_attribute(self, schema):
        with pytest.raises(OntologyError):
            schema.path_for("watch", "ghost")

    def test_len_counts_paths(self, schema):
        assert len(schema) == 8

    def test_refresh_after_schema_change(self, schema):
        schema.ontology.add_attribute("watch", "bezel")
        assert not schema.has_path("thing.product.watch.bezel")
        schema.refresh()
        assert schema.has_path("thing.product.watch.bezel")


class TestQuerySupport:
    def test_resolve_query_class_exact(self, schema):
        assert schema.resolve_query_class("product") == "product"

    def test_resolve_query_class_case_insensitive(self, schema):
        assert schema.resolve_query_class("Product") == "product"
        assert schema.resolve_query_class("WATCH") == "watch"

    def test_resolve_query_class_unknown(self, schema):
        with pytest.raises(OntologyError):
            schema.resolve_query_class("spaceship")

    def test_class_closure_paper_example(self, schema):
        # "the output classes will be Product, watch, and Provider"
        assert schema.class_closure("product") == \
            ["product", "watch", "provider"]

    def test_class_closure_leaf(self, schema):
        assert schema.class_closure("provider") == ["provider"]

    def test_class_closure_from_subclass_includes_linked(self, schema):
        closure = schema.class_closure("watch")
        assert closure == ["watch", "provider"]

    def test_object_properties_between(self, schema):
        props = schema.object_properties_between("watch", "provider")
        assert [p.name for p in props] == ["hasProvider"]
        assert schema.object_properties_between("provider", "watch") == []
