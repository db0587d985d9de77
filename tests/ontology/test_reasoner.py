"""Tests for the structural reasoner."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OntologyError, ValidationError
from repro.ontology import Ontology, Reasoner
from repro.ontology.reasoner import (_RANGE_COERCERS, coerce_column,
                                     range_coercer)


@pytest.fixture
def reasoner(ontology):
    return Reasoner(ontology)


class TestSubclassing:
    def test_reflexive(self, reasoner):
        assert reasoner.is_subclass("watch", "watch")

    def test_direct(self, reasoner):
        assert reasoner.is_subclass("watch", "product")

    def test_transitive(self, reasoner):
        assert reasoner.is_subclass("watch", "thing")

    def test_not_inverse(self, reasoner):
        assert not reasoner.is_subclass("product", "watch")

    def test_unrelated(self, reasoner):
        assert not reasoner.is_subclass("provider", "product")

    def test_unknown_class_raises(self, reasoner):
        with pytest.raises(OntologyError):
            reasoner.is_subclass("ghost", "ghost")

    def test_ancestor_cache_consistency(self, reasoner):
        first = reasoner.ancestors("watch")
        second = reasoner.ancestors("watch")
        assert first is second  # cached
        assert first == frozenset({"product", "thing"})


class TestCoercion:
    def test_string(self, reasoner):
        assert reasoner.coerce("product", "brand", "Seiko") == "Seiko"

    def test_double_from_text(self, reasoner):
        assert reasoner.coerce("product", "price", " 199.5 ") == 199.5

    def test_integer_from_text(self, reasoner):
        assert reasoner.coerce("watch", "water_resistance", "200") == 200

    def test_integer_rejects_garbage(self, reasoner):
        with pytest.raises(ValidationError):
            reasoner.coerce("watch", "water_resistance", "deep")

    def test_double_rejects_garbage(self, reasoner):
        with pytest.raises(ValidationError):
            reasoner.coerce("product", "price", "$12")

    def test_inherited_attribute_coerces(self, reasoner):
        assert reasoner.coerce("watch", "price", "10") == 10.0

    def test_unknown_attribute_raises(self, reasoner):
        with pytest.raises(OntologyError):
            reasoner.coerce("watch", "ghost", "x")


class TestBooleanAndTemporalCoercion:
    @pytest.fixture
    def onto(self):
        o = Ontology("t")
        o.add_class("event")
        o.add_attribute("event", "active", "boolean")
        o.add_attribute("event", "day", "date")
        o.add_attribute("event", "at", "dateTime")
        return o

    def test_boolean_truthy_spellings(self, onto):
        r = Reasoner(onto)
        for text in ("true", "True", "1", "yes"):
            assert r.coerce("event", "active", text) is True

    def test_boolean_falsy_spellings(self, onto):
        r = Reasoner(onto)
        for text in ("false", "0", "no"):
            assert r.coerce("event", "active", text) is False

    def test_boolean_garbage(self, onto):
        with pytest.raises(ValidationError):
            Reasoner(onto).coerce("event", "active", "maybe")

    def test_boolean_passthrough(self, onto):
        assert Reasoner(onto).coerce("event", "active", True) is True

    def test_date(self, onto):
        assert Reasoner(onto).coerce("event", "day", "2006-07-04") == \
            datetime.date(2006, 7, 4)

    def test_date_garbage(self, onto):
        with pytest.raises(ValidationError):
            Reasoner(onto).coerce("event", "day", "July 4")

    def test_datetime(self, onto):
        value = Reasoner(onto).coerce("event", "at", "2006-07-04T10:30:00")
        assert value == datetime.datetime(2006, 7, 4, 10, 30)


# ----------------------------------------------------------------------
# Properties the instance generator leans on
# ----------------------------------------------------------------------

RAW_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["12", " 7 ", "-3", "1.5", "1e3", "1_0", "\t2\n", "٣",
                     "nan", "inf", "yes", "No", " TRUE ", "0",
                     "2006-07-04", " 2024-02-29 ", "2006-07-04T10:30:00",
                     "2006-07-04T10:30:00+02:00", "http://example.org/x"]),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=False, width=32),
    st.booleans(), st.none(), st.dates(), st.datetimes(),
    st.lists(st.integers(), max_size=2))


def _same(first, second) -> bool:
    return type(first) is type(second) and repr(first) == repr(second)


class TestCoercersAreIdempotent:
    """What licenses the generator to validate a shape, not every
    individual: coercing an already coerced value returns it and never
    raises, so ``validate_individual``'s re-coercion of a plan-built
    entity's values could only ever agree."""

    @settings(max_examples=300, deadline=None)
    @given(range_name=st.sampled_from(sorted(_RANGE_COERCERS)),
           raw=RAW_VALUES)
    def test_coercing_twice_is_coercing_once(self, range_name, raw):
        coerce = range_coercer(range_name)
        try:
            once = coerce(raw, "a")
        except ValidationError:
            return
        assert _same(coerce(once, "a"), once)


class TestCoerceColumn:
    """A column through its one coercer is the values through it one by
    one — also on the path that skips the per-value call."""

    @settings(max_examples=300, deadline=None)
    @given(range_name=st.sampled_from(sorted(_RANGE_COERCERS)),
           column=st.one_of(st.lists(RAW_VALUES, max_size=6),
                            st.lists(st.text(max_size=6), max_size=6),
                            st.lists(st.sampled_from(
                                ["12", " 7 ", "1.5", "\t2\n", "1_0", "٣",
                                 "x", "", "nan"]), max_size=6)))
    def test_agrees_with_value_by_value(self, range_name, column):
        coerce = range_coercer(range_name)
        try:
            expected = [coerce(value, "a") for value in column]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                coerce_column(coerce, column, "a")
            assert str(raised.value) == str(exc)
            return
        actual = coerce_column(coerce, column, "a")
        assert len(actual) == len(expected)
        assert all(map(_same, actual, expected))

    def test_a_string_column_of_strings_is_returned_as_it_is(self):
        column = ["Seiko", " padded ", ""]
        assert coerce_column(range_coercer("string"), column, "a") is column
        mixed = ["Seiko", 7]
        assert coerce_column(range_coercer("string"), mixed, "a") == [
            "Seiko", "7"]
