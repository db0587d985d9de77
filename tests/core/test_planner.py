"""Tests for query planning (extraction step 1)."""

import pytest

from repro.core.query import QueryPlanner, parse_s2sql
from repro.errors import QueryError


@pytest.fixture
def planner(schema):
    return QueryPlanner(schema)


class TestPlanning:
    def test_output_class_closure(self, planner):
        plan = planner.plan(parse_s2sql("SELECT product"))
        assert plan.output_classes == ["product", "watch", "provider"]

    def test_required_attributes_cover_closure(self, planner):
        plan = planner.plan(parse_s2sql("SELECT product"))
        required = {str(p) for p in plan.required_attributes}
        assert "thing.product.brand" in required
        assert "thing.product.watch.case" in required
        assert "thing.provider.name" in required

    def test_class_resolution_case_insensitive(self, planner):
        plan = planner.plan(parse_s2sql("SELECT Product"))
        assert plan.class_name == "product"

    def test_unknown_class(self, planner):
        with pytest.raises(QueryError):
            planner.plan(parse_s2sql("SELECT spaceship"))

    def test_condition_resolved_to_canonical_path(self, planner):
        plan = planner.plan(parse_s2sql('SELECT product WHERE brand = "S"'))
        assert str(plan.conditions[0].path) == "thing.product.brand"

    def test_subclass_condition_resolved(self, planner):
        # `case` lives on watch, queried through product (paper's example).
        plan = planner.plan(parse_s2sql('SELECT product WHERE case = "x"'))
        assert str(plan.conditions[0].path) == "thing.product.watch.case"

    def test_linked_class_condition_resolved(self, planner):
        plan = planner.plan(parse_s2sql('SELECT product WHERE name = "Acme"'))
        assert str(plan.conditions[0].path) == "thing.provider.name"

    def test_dotted_condition(self, planner):
        plan = planner.plan(parse_s2sql(
            'SELECT product WHERE thing.product.brand = "S"'))
        assert str(plan.conditions[0].path) == "thing.product.brand"

    def test_unknown_dotted_condition(self, planner):
        with pytest.raises(QueryError):
            planner.plan(parse_s2sql(
                'SELECT product WHERE thing.product.ghost = "S"'))

    def test_unknown_bare_condition(self, planner):
        with pytest.raises(QueryError):
            planner.plan(parse_s2sql('SELECT product WHERE ghost = "S"'))


class TestConstraintTyping:
    def test_numeric_constraint_coerced_to_double(self, planner):
        plan = planner.plan(parse_s2sql("SELECT product WHERE price < 100"))
        assert plan.conditions[0].value == 100.0
        assert isinstance(plan.conditions[0].value, float)

    def test_string_number_for_integer_attribute(self, planner):
        plan = planner.plan(parse_s2sql(
            'SELECT product WHERE water_resistance >= "200"'))
        assert plan.conditions[0].value == 200

    def test_invalid_numeric_constraint(self, planner):
        with pytest.raises(QueryError):
            planner.plan(parse_s2sql('SELECT product WHERE price < "cheap"'))

    def test_like_keeps_string(self, planner):
        plan = planner.plan(parse_s2sql(
            'SELECT product WHERE price LIKE "1%"'))
        assert plan.conditions[0].value == "1%"

    def test_string_attribute_numeric_value_stringified(self, planner):
        plan = planner.plan(parse_s2sql("SELECT product WHERE brand = 7"))
        assert plan.conditions[0].value == "7"


class TestConstraintTypingSharesTheGeneratorsCoercion:
    """The constraint is typed by the coercer that types the records, so
    both sides of ``=`` agree (the planner once had a private copy that
    read ``"yes"`` as ``False`` and let ``"maybe"`` plan)."""

    @pytest.fixture
    def event_planner(self):
        from repro.ontology import Ontology, OntologySchema
        onto = Ontology("events")
        onto.add_class("event")
        onto.add_attribute("event", "active", "boolean")
        onto.add_attribute("event", "seats", "integer")
        onto.add_attribute("event", "fee", "decimal")
        onto.add_attribute("event", "day", "date")
        onto.add_attribute("event", "at", "dateTime")
        onto.add_attribute("event", "site", "anyURI")
        return QueryPlanner(OntologySchema(onto))

    def typed(self, planner, condition):
        plan = planner.plan(parse_s2sql(f"SELECT event WHERE {condition}"))
        return plan.conditions[0].value

    @pytest.mark.parametrize("text, expected", [
        ('"yes"', True), ('"YES "', True), ('"true"', True), ("1", True),
        ("TRUE", True), ('"no"', False), ('"false"', False), ("0", False),
        ("FALSE", False)])
    def test_boolean_constraint(self, event_planner, text, expected):
        assert self.typed(event_planner, f"active = {text}") is expected

    @pytest.mark.parametrize("text", ['"maybe"', "2", '""'])
    def test_junk_boolean_constraint_fails_at_plan_time(self, event_planner,
                                                        text):
        with pytest.raises(QueryError) as error:
            self.typed(event_planner, f"active = {text}")
        assert "is not a valid boolean for attribute 'active'" in str(
            error.value)

    def test_other_ranges_type_exactly_as_before(self, event_planner):
        import datetime
        cases = [("seats >= 200", 200, int), ('seats = " 7 "', 7, int),
                 ("seats < 3.7", 3, int), ("fee < 100", 100.0, float),
                 ('fee = "1e3"', 1000.0, float),
                 ('day = "2006-07-04"', datetime.date(2006, 7, 4),
                  datetime.date),
                 ('at > " 2006-07-04T10:30:00 "',
                  datetime.datetime(2006, 7, 4, 10, 30), datetime.datetime),
                 ("site = 7", "7", str), ('site LIKE "http%"', "http%", str),
                 ('active CONTAINS "ye"', "ye", str)]
        for condition, expected, kind in cases:
            value = self.typed(event_planner, condition)
            assert value == expected and type(value) is kind, condition

    @pytest.mark.parametrize("condition", [
        'seats = "many"', 'seats = "1.5"', 'fee < "cheap"',
        'day = "July 4"', "day = 7", 'at = "noon"'])
    def test_untypable_constraint_keeps_its_error_text(self, event_planner,
                                                       condition):
        with pytest.raises(QueryError, match="constraint .* is not a valid "
                                             ".* for attribute"):
            self.typed(event_planner, condition)
