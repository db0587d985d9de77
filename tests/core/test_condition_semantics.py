"""WHERE semantics shared with the layers below S2SQL.

Two regressions: the planner typed boolean constraints with a private
copy of the range coercion (``"yes"`` meant ``False``), and S2SQL
``LIKE`` was a private copy of the SQL engine's (``%`` stopped at a
newline, and the pattern was recompiled for every entity).
"""

from __future__ import annotations

import pytest

from repro import ExtractionRule, S2SMiddleware
from repro.core.query import planner as planner_module
from repro.errors import QueryError
from repro.ontology import Ontology
from repro.sources.relational import Database
from repro.sources.textfiles import TextDataSource, TextFileStore

#: (title, raw ``active`` flag) — the first title spans two lines, as a
#: scraped web/text value does
OFFERS = [("Seiko\nDiver", "yes"), ("seiko 5", "no"), ("Casio", "YES"),
          ("a.c (x)[1]+?", "0"), ("abc (x)[1]+?", "true"), ("100%_off", "1")]

LIKE_PATTERNS = ["Sei%", "SEI%", "sei%r", "Seiko_Diver", "%", "%%", "%o",
                 "_asio", "casio", "a.c (x)[1]+?", "a.c%", "%(x)[1]+?",
                 "100%", "100%_off", "____", "Seiko", ""]


@pytest.fixture
def offers_s2s():
    ontology = Ontology("offers")
    ontology.add_class("offer")
    ontology.add_attribute("offer", "title", "string")
    ontology.add_attribute("offer", "active", "boolean")
    files = TextFileStore()
    files.write("offers.txt", "".join(
        f"title=|{title}| active=|{flag}|\n" for title, flag in OFFERS))
    s2s = S2SMiddleware(ontology)
    s2s.register_source(TextDataSource("OFFERS", files,
                                       default_file="offers.txt"))
    for attribute in ("title", "active"):
        s2s.register_attribute(
            ("offer", attribute),
            ExtractionRule.regex(rf"{attribute}=\|([^|]*)\|"), "OFFERS")
    return s2s


def titles(result) -> list[str]:
    return [entity.value("title") for entity in result.entities]


class TestBooleanConstraint:
    def test_yes_matches_records_whose_raw_yes_became_true(self, offers_s2s):
        result = offers_s2s.query('SELECT offer WHERE active = "yes"')
        assert titles(result) == ["Seiko\nDiver", "Casio", "abc (x)[1]+?",
                                  "100%_off"]
        assert all(e.value("active") is True for e in result.entities)

    def test_no_matches_the_false_ones(self, offers_s2s):
        result = offers_s2s.query('SELECT offer WHERE active = "no"')
        assert titles(result) == ["seiko 5", "a.c (x)[1]+?"]

    def test_maybe_fails_instead_of_planning(self, offers_s2s):
        with pytest.raises(QueryError, match="not a valid boolean"):
            offers_s2s.query('SELECT offer WHERE active = "maybe"')


class TestLike:
    def test_percent_crosses_an_embedded_newline(self, offers_s2s):
        result = offers_s2s.query('SELECT offer WHERE title LIKE "Sei%"')
        assert titles(result) == ["Seiko\nDiver", "seiko 5"]

    @pytest.mark.parametrize("pattern", LIKE_PATTERNS)
    def test_s2sql_and_sql_agree(self, offers_s2s, pattern):
        """One LIKE for both languages: wildcards, regex metacharacters
        taken literally, case-insensitive, whole-value."""
        database = Database("offers")
        database.execute("CREATE TABLE offers (title TEXT)")
        for title, _flag in OFFERS:
            database.require_table("offers").insert({"title": title})
        sql = database.execute(
            f"SELECT title FROM offers WHERE title LIKE '{pattern}'")
        result = offers_s2s.query(
            f'SELECT offer WHERE title LIKE "{pattern}"')
        assert titles(result) == [row[0] for row in sql.rows]

    def test_expected_matches_spelled_out(self, offers_s2s):
        expected = {"Seiko_Diver": ["Seiko\nDiver"], "_asio": ["Casio"],
                    "%%": [title for title, _flag in OFFERS],
                    "a.c%": ["a.c (x)[1]+?"], "100%": ["100%_off"],
                    "casio": ["Casio"], "Seiko": [], "": []}
        for pattern, matched in expected.items():
            result = offers_s2s.query(
                f'SELECT offer WHERE title LIKE "{pattern}"')
            assert titles(result) == matched, pattern

    def test_pattern_compiles_once_per_condition(self, offers_s2s,
                                                 monkeypatch):
        compiled = []
        original = planner_module.like_to_regex

        def counting(pattern):
            compiled.append(pattern)
            return original(pattern)
        monkeypatch.setattr(planner_module, "like_to_regex", counting)
        result = offers_s2s.query(
            'SELECT offer WHERE title LIKE "%o%" AND title LIKE "%s%"')
        assert len(result.entities) > 1
        assert compiled == ["%o%", "%s%"]


# ----------------------------------------------------------------------
# A condition reads the individual its resolved path names
# ----------------------------------------------------------------------

#: (product name, provider name): the first is *provided by* Acme, the
#: second is *named* Acme
NAMED = [("Diver", "Acme"), ("Acme", "Zenith")]


def named_s2s(**options) -> S2SMiddleware:
    """``product.name`` and ``provider.name`` both declared."""
    from repro.ontology.builders import watch_domain_ontology
    from repro.sources.relational import RelationalDataSource
    ontology = watch_domain_ontology()
    ontology.add_attribute("product", "name", "string")
    database = Database("shop")
    database.execute("CREATE TABLE offers (product TEXT, provider TEXT)")
    for product, provider in NAMED:
        database.require_table("offers").insert(
            {"product": product, "provider": provider})
    s2s = S2SMiddleware(ontology, **options)
    s2s.register_source(RelationalDataSource("SHOP", database))
    s2s.register_attribute(
        ("product", "name"),
        ExtractionRule.sql("SELECT product FROM offers"), "SHOP")
    s2s.register_attribute(
        ("provider", "name"),
        ExtractionRule.sql("SELECT provider FROM offers"), "SHOP")
    return s2s


def names(result) -> list[tuple[str, str]]:
    return [(entity.primary.values["name"],
             entity.satellites[0].values["name"])
            for entity in result.entities]


class TestConditionReadsItsOwnClass:
    """``WHERE thing.provider.name = "Acme"`` used to look ``name`` up by bare
    name, primary first: it returned the product *named* Acme and dropped
    the one whose provider is Acme."""

    BY_PROVIDER = 'SELECT product WHERE thing.provider.name = "Acme"'
    BY_PRODUCT = 'SELECT product WHERE thing.product.name = "Acme"'

    def test_live(self):
        s2s = named_s2s()
        assert names(s2s.query(self.BY_PROVIDER)) == [("Diver", "Acme")]
        assert names(s2s.query(self.BY_PRODUCT)) == [("Acme", "Zenith")]
        # a bare name resolves to the query class's own attribute first
        assert names(s2s.query('SELECT product WHERE name = "Acme"')) == [
            ("Acme", "Zenith")]
        # and, from the provider's side, to the provider's
        assert [entity.primary.values["name"] for entity in s2s.query(
            'SELECT provider WHERE name = "Acme"').entities] == ["Acme"]

    def test_store_served(self):
        s2s = named_s2s(store=True)
        s2s.query("SELECT product")
        for query, expected in ((self.BY_PROVIDER, [("Diver", "Acme")]),
                                (self.BY_PRODUCT, [("Acme", "Zenith")])):
            result = s2s.query(query)
            assert result.store_hit
            assert names(result) == expected

    def test_merged(self):
        s2s = named_s2s()
        for query, expected in ((self.BY_PROVIDER, [("Diver", "Acme")]),
                                (self.BY_PRODUCT, [("Acme", "Zenith")])):
            result = s2s.query(query, merge_key=["name"])
            assert names(result) == expected

    def test_every_entry_point_agrees(self):
        s2s = named_s2s()
        expected = [("Diver", "Acme")]
        assert names(s2s.query(self.BY_PROVIDER)) == expected
        first, second = s2s.query_many([self.BY_PROVIDER, self.BY_PRODUCT])
        assert names(first) == expected
        assert names(second) == [("Acme", "Zenith")]

    def test_subclass_individual_answers_for_its_superclass(self):
        """A ``watch`` individual is what ``product.name`` reads, and a
        record with nothing of ``watch`` is NULL to a ``watch`` condition."""
        s2s = named_s2s()
        s2s.register_attribute(
            ("watch", "case"),
            ExtractionRule.sql("SELECT product FROM offers"), "SHOP")
        result = s2s.query(self.BY_PRODUCT)
        assert result.entities[0].primary.class_name == "watch"
        assert names(result) == [("Acme", "Zenith")]
