"""Deeper XPath engine edge cases."""

import pytest

from repro.xmlkit import XPath, parse_xml, xpath_select

DOC = """
<root version="2">
  <group name="g1">
    <item id="1"><v>10</v></item>
    <item id="2"><v>20</v></item>
  </group>
  <group name="g2">
    <item id="3"><v>30</v></item>
  </group>
  <empty/>
</root>
"""


@pytest.fixture
def doc():
    return parse_xml(DOC)


class TestAxesEdge:
    def test_parent_chain(self, doc):
        nodes = xpath_select(doc, "//v/../..")
        assert {n.name for n in nodes} == {"group"}

    def test_parent_of_root_element_is_empty(self, doc):
        # Simplification vs full XPath: the DOM does not back-link the
        # root element to the document node, so /root/.. is empty rather
        # than the document.
        assert xpath_select(doc, "/root/..") == []

    def test_descendant_then_predicate_position(self, doc):
        # position applies per parent's candidate list after //
        ids = xpath_select(doc, "//item[1]/@id")
        assert ids == ["1", "3"]  # first item of each group

    def test_descendant_self_star(self, doc):
        # root + 2 groups + 3 items + 3 v + empty = 10 elements
        all_elements = xpath_select(doc, "//*")
        assert len(all_elements) == 10

    def test_empty_element_text_is_empty(self, doc):
        assert XPath("/root/empty").values(doc) == [""]

    def test_attribute_of_missing_element(self, doc):
        assert xpath_select(doc, "/root/ghost/@x") == []


class TestPredicatesEdge:
    def test_nodeset_comparison_is_existential(self, doc):
        # group matches when ANY item/v satisfies the comparison
        names = xpath_select(doc, '//group[item/v > 25]/@name')
        assert names == ["g2"]

    def test_nodeset_equality_both_sides(self, doc):
        # any pair (item/v, v-of-other) equality — compare to constant here
        assert xpath_select(doc, '//group[item/v = 10]/@name') == ["g1"]

    def test_count_in_predicate(self, doc):
        names = xpath_select(doc, "//group[count(item) = 2]/@name")
        assert names == ["g1"]

    def test_position_and_condition_combined(self, doc):
        ids = xpath_select(doc, "//item[position() = 1 and @id = '3']/@id")
        assert ids == ["3"]

    def test_numeric_string_comparison_coerces(self, doc):
        assert xpath_select(doc, '/root[@version > 1]') != []

    def test_predicate_on_attribute_step(self, doc):
        # filter attribute values themselves
        values = xpath_select(doc, "//item/@id[. > 1]")
        assert values == ["2", "3"]


class TestFunctionsEdge:
    def test_number_of_non_numeric_is_nan(self, doc):
        value = XPath('number(//group[1]/@name)').evaluate(doc)
        assert value != value  # NaN

    def test_nan_comparisons_false(self, doc):
        assert xpath_select(doc, '//group[number(@name) > 0]') == []

    def test_string_of_empty_nodeset(self, doc):
        assert XPath("string(//ghost)").evaluate(doc) == ""

    def test_boolean_coercion_of_empty_string(self, doc):
        assert xpath_select(doc, '//group[string(//ghost)]') == []

    def test_concat_with_numbers(self, doc):
        value = XPath('concat("n=", count(//item))').evaluate(doc)
        assert value == "n=3"

    def test_substring_out_of_range(self, doc):
        assert XPath('substring("abc", 10, 5)').evaluate(doc) == ""
        assert XPath('substring("abc", 0)').evaluate(doc) == "abc"


class TestUnionEdge:
    def test_union_deduplicates(self, doc):
        nodes = xpath_select(doc, "//item | //item")
        assert len(nodes) == 3

    def test_union_preserves_first_operand_order(self, doc):
        nodes = xpath_select(doc, "//group | //item")
        assert [n.name for n in nodes[:2]] == ["group", "group"]


class TestRelativeEvaluation:
    def test_relative_from_mid_tree(self, doc):
        group = xpath_select(doc, "//group")[0]
        assert XPath("item/v").values(group) == ["10", "20"]

    def test_absolute_from_mid_tree_goes_to_root(self, doc):
        group = xpath_select(doc, "//group")[1]
        assert len(XPath("//item").select(group)) == 3

    def test_dot_descendant(self, doc):
        group = xpath_select(doc, "//group")[0]
        assert len(XPath(".//v").select(group)) == 2


REPEATED = ('<c><i k="1"><n>x</n></i><i k="1"><n>y</n></i>'
            '<i k="2"><n>z</n></i></c>')


class TestAttributeValuesHaveNoIdentity:
    """Attribute steps yield plain strings; equal (interned) values of
    *different* elements used to collapse under ``id()`` de-duplication,
    silently misaligning an attribute column against its siblings."""

    def test_equal_values_of_different_elements_are_all_kept(self):
        doc = parse_xml(REPEATED)
        assert xpath_select(doc, "//i/@k") == ["1", "1", "2"]
        assert len(xpath_select(doc, "//i/n")) == 3

    def test_self_step_and_predicate_over_attribute_values(self):
        doc = parse_xml(REPEATED)
        assert xpath_select(doc, "//i/@k/.") == ["1", "1", "2"]
        assert xpath_select(doc, "//i/@k[. = '1']") == ["1", "1"]
        assert xpath_select(doc, "//@k") == ["1", "1", "2"]

    def test_an_attribute_reached_twice_is_still_one(self):
        # both (nested) context nodes reach the inner element's @k
        doc = parse_xml('<a k="1"><a k="2"><b/></a></a>')
        assert xpath_select(doc, "//a//@k") == ["1", "2"]
        same = parse_xml('<a k="1"><a k="1"><b/></a></a>')
        assert xpath_select(same, "//a//@k") == ["1", "1"]

    def test_union_keeps_every_attribute_value(self):
        doc = parse_xml(REPEATED)
        assert xpath_select(doc, "//i[1]/@k | //i[2]/@k") == ["1", "1"]


class TestNumericPredicateIsPositionEquals:
    """XPath 1.0: ``[n]`` is ``position() = n``.  NaN and fractions
    select nothing — and nothing untyped (``int(NaN)``) escapes."""

    def test_nan_predicate_selects_nothing(self, doc):
        assert xpath_select(doc, '//item[number("x")]') == []

    def test_fractional_predicate_selects_nothing(self, doc):
        assert xpath_select(doc, "//item[1.5]") == []
        assert xpath_select(doc, "//item[1.0]/@id") == ["1", "3"]

    def test_substring_with_nan_or_infinite_bounds(self, doc):
        assert XPath('substring("abc", "x")').evaluate(doc) == ""
        assert XPath('substring("abc", 1, "x")').evaluate(doc) == ""
        assert XPath('substring("abc", "inf")').evaluate(doc) == ""
        assert XPath('substring("abc", "-inf")').evaluate(doc) == "abc"
        assert XPath('substring("abc", "-inf", "inf")').evaluate(doc) == ""

    def test_substring_rounds_like_xpath(self, doc):
        # the spec's own examples (section 4.2)
        assert XPath('substring("12345", 1.5, 2.6)').evaluate(doc) == "234"
        assert XPath('substring("12345", 0, 3)').evaluate(doc) == "12"
        assert XPath('substring("12345", 2, "-1")').evaluate(doc) == ""

    def test_string_of_non_finite_numbers(self, doc):
        assert XPath('string(number("x"))').evaluate(doc) == "NaN"
        assert XPath('string(number("inf"))').evaluate(doc) == "Infinity"
        assert XPath('string(number("-inf"))').evaluate(doc) == "-Infinity"
