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
