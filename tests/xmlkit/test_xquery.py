"""Tests for the XQuery FLWOR subset (paper §2.3.1: "XPath and XQuery")."""

import pytest

from repro.errors import XPathError
from repro.xmlkit import parse_xml
from repro.xmlkit.xquery import XQuery, is_flwor

CATALOG = """
<catalog>
  <watch><brand>Seiko</brand><price>199.5</price>
    <case>stainless-steel</case></watch>
  <watch><brand>Casio</brand><price>15.5</price><case>resin</case></watch>
  <watch><brand>Seiko</brand><price>89.0</price>
    <case>stainless-steel</case></watch>
</catalog>
"""


@pytest.fixture
def doc():
    return parse_xml(CATALOG)


def xquery_values(root, text: str) -> list[str]:
    return XQuery.compile(text).evaluate(root)


class TestFlwor:
    def test_for_return(self, doc):
        values = xquery_values(doc, "for $w in //watch return $w/brand")
        assert values == ["Seiko", "Casio", "Seiko"]

    def test_where_numeric(self, doc):
        values = xquery_values(
            doc, "for $w in //watch where $w/price > 100 return $w/brand")
        assert values == ["Seiko"]

    def test_where_string_function(self, doc):
        values = xquery_values(
            doc, 'for $w in //watch where contains($w/case, "steel") '
                 'return $w/brand')
        assert values == ["Seiko", "Seiko"]

    def test_where_conjunction(self, doc):
        values = xquery_values(
            doc, 'for $w in //watch where $w/brand = "Seiko" and '
                 '$w/price < 100 return $w/price')
        assert values == ["89.0"]

    def test_bare_variable_reference(self, doc):
        # normalize-space(.) of the bound node: XPath string value is the
        # concatenated descendant text (no separators between elements).
        values = xquery_values(
            doc, 'for $w in //watch where $w/price < 20 '
                 'return normalize-space($w)')
        assert values == ["Casio15.5resin"]

    def test_return_scalar_expression(self, doc):
        values = xquery_values(
            doc, 'for $w in //watch return concat($w/brand, ":", $w/price)')
        assert values == ["Seiko:199.5", "Casio:15.5", "Seiko:89.0"]

    def test_multiline_formatting(self, doc):
        query = """
        for $w in //watch
        where $w/price > 50
        return $w/brand
        """
        assert xquery_values(doc, query) == ["Seiko", "Seiko"]

    def test_empty_result(self, doc):
        assert xquery_values(
            doc, "for $w in //watch where $w/price > 9999 "
                 "return $w/brand") == []


class TestErrors:
    def test_not_flwor_rejected(self):
        with pytest.raises(XPathError):
            XQuery.compile("//watch/brand")

    def test_unknown_variable_rejected(self):
        with pytest.raises(XPathError):
            XQuery.compile("for $w in //watch return $other/brand")

    def test_bad_inner_xpath_rejected(self):
        with pytest.raises(XPathError):
            XQuery.compile("for $w in //watch[ return $w/brand")

    def test_for_over_attributes_rejected(self):
        doc = parse_xml('<c><watch id="1"/></c>')
        query = XQuery.compile("for $a in //watch/@id return $a")
        with pytest.raises(XPathError):
            query.evaluate(doc)

    def test_is_flwor(self):
        assert is_flwor("for $w in //watch return $w/brand")
        assert is_flwor("  for $w in //x return $w")
        assert not is_flwor("//watch/brand")


class TestConnectorIntegration:
    def test_xquery_extraction_rule(self, watch_xml_store):
        from repro.sources.xmlstore import XmlDataSource
        source = XmlDataSource("XML_7", watch_xml_store,
                               default_document="catalog.xml")
        values = source.execute_rule(
            "for $w in //watch where $w/price > 100 return $w/brand")
        assert values == ["Orient"]

    def test_xquery_rule_validates(self):
        from repro.core.mapping.rules import ExtractionRule
        ExtractionRule(
            "xpath",
            "for $w in //watch where $w/price > 1 return $w/brand"
        ).validate()

    def test_bad_xquery_rule_rejected_at_registration(self):
        from repro.core.mapping.rules import ExtractionRule
        with pytest.raises(XPathError):
            ExtractionRule("xpath",
                           "for $w in //watch return $nope/brand").validate()

    def test_middleware_query_through_xquery_rules(self, watch_xml_store):
        from repro import S2SMiddleware, ExtractionRule
        from repro.ontology.builders import watch_domain_ontology
        from repro.sources.xmlstore import XmlDataSource
        s2s = S2SMiddleware(watch_domain_ontology())
        s2s.register_source(XmlDataSource(
            "XML_7", watch_xml_store, default_document="catalog.xml"))
        s2s.register_attribute(
            ("product", "brand"),
            ExtractionRule.xpath("for $w in //watch return $w/brand"), "XML_7")
        s2s.register_attribute(
            ("product", "price"),
            ExtractionRule.xpath("for $w in //watch return $w/price"), "XML_7")
        result = s2s.query("SELECT product WHERE price < 100")
        assert [e.value("brand") for e in result.entities] == ["Casio"]
