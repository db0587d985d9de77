"""Tests for attribute-path identifiers (paper Figure 4)."""

import pytest

from repro.errors import MappingError
from repro.ids import AttributePath


class TestParsing:
    def test_paper_examples(self):
        path = AttributePath.parse("thing.product.brand")
        assert path.classes == ("thing", "product")
        assert path.attribute == "brand"
        assert path.leaf_class == "product"

    def test_deep_path(self):
        path = AttributePath.parse("thing.product.watch.case")
        assert path.leaf_class == "watch"
        assert path.within("product")
        assert not path.within("case")  # attribute is not a class

    def test_str_roundtrip(self):
        text = "thing.product.watch.case"
        assert str(AttributePath.parse(text)) == text

    def test_minimum_two_segments(self):
        with pytest.raises(MappingError):
            AttributePath.parse("brand")

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            AttributePath.parse("")

    def test_non_string_rejected(self):
        with pytest.raises(MappingError):
            AttributePath.parse(None)  # type: ignore[arg-type]

    def test_invalid_segment(self):
        with pytest.raises(MappingError):
            AttributePath.parse("thing..brand")
        with pytest.raises(MappingError):
            AttributePath.parse("thing.1brand")
        with pytest.raises(MappingError):
            AttributePath.parse("thing.bra nd")

    def test_hyphen_and_underscore_allowed(self):
        AttributePath.parse("thing.water_resistance.x-rating")

    def test_hashable_and_equal(self):
        a = AttributePath.parse("t.a")
        b = AttributePath.parse("t.a")
        assert a == b and hash(a) == hash(b)

    def test_child(self):
        path = AttributePath.parse("thing.product")
        assert str(path.child("brand")) == "thing.product.brand"
        with pytest.raises(MappingError):
            path.child("1bad")
