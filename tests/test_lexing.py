"""Unit tests of :mod:`repro.lexing` — the scanner and the cursor every
front end shares — on a toy language declared here, so a failure points at
the shared module and not at one of the six grammars."""

from __future__ import annotations

import pytest

from repro.errors import S2SError
from repro.lexing import (MAX_NESTING, MISMATCH, Lexer, Token, TokenCursor,
                          char_from_code, unquote)


class ToyError(S2SError):
    def __init__(self, message, text, token):
        super().__init__(message)
        self.message, self.text, self.token = message, text, token


TOY = Lexer(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<name>[A-Za-z_]+|"[^"]+")
    """,
    ToyError, unit="toy program", keywords=frozenset({"LET", "IN"}),
    decode={"string": lambda raw: raw[1:-1].replace("''", "'"),
            "name": lambda raw: raw.strip('"')})


class ToyCursor(TokenCursor):
    lexer = TOY

    def parens(self) -> int:
        """``( ( ... ) )`` -> how deep it went."""
        if not self.accept("lparen"):
            return 0
        self.descend()
        inner = self.parens()
        self.expect("rparen")
        self.ascend()
        return inner + 1


class TestScan:
    def test_kinds_are_group_names_and_ws_is_dropped(self):
        tokens = TOY.scan("  x  # comment\n 12 ( )")
        assert [t.kind for t in tokens] == ["name", "number", "lparen",
                                            "rparen"]

    def test_keywords_fold_and_carry_the_folded_text(self):
        tokens = TOY.scan("let x In y")
        assert [(t.kind, t.value) for t in tokens] == [
            ("keyword", "LET"), ("name", "x"), ("keyword", "IN"),
            ("name", "y")]

    def test_fold_is_the_languages_choice(self):
        sensitive = Lexer(r"(?P<ws>\s+)|(?P<name>\w+)", ToyError, unit="x",
                          keywords=frozenset({"let"}), fold=str)
        assert [t.kind for t in sensitive.scan("let LET")] == ["keyword",
                                                               "name"]

    def test_decode_runs_per_kind_after_the_keyword_check(self):
        tokens = TOY.scan("""'it''s' "let" 1.5""")
        assert [(t.kind, t.value) for t in tokens] == [
            ("string", "it's"), ("name", "let"), ("number", "1.5")]

    def test_unquote(self):
        assert unquote("`a b`") == "a b"

    def test_position_and_line_across_newlines_and_comments(self):
        tokens = TOY.scan("a\n# two\n\n  'x\ny' b")
        assert [(t.value, t.position, t.line) for t in tokens] == [
            ("a", 0, 1), ("x\ny", 11, 4), ("b", 17, 5)]

    def test_mismatch_reaches_the_factory_as_a_token(self):
        with pytest.raises(ToyError) as excinfo:
            TOY.scan("a\n  @")
        error = excinfo.value
        assert error.message == "unexpected character '@'"
        assert error.text == "a\n  @"
        assert error.token == Token(MISMATCH, "@", 4, 2)

    def test_a_rule_that_matches_nothing_is_refused_at_declaration(self):
        with pytest.raises(ValueError, match="matches the empty string"):
            Lexer(r"(?P<ws>\s+)|(?P<name>[a-z]*)", ToyError, unit="x")


class TestCursor:
    def test_peek_looks_ahead_without_consuming(self):
        cursor = ToyCursor("a b")
        assert cursor.peek().value == "a"
        assert cursor.peek(1).value == "b"
        assert cursor.peek(2) is None
        assert cursor.next().value == "a"
        assert cursor.peek().value == "b"

    def test_next_past_the_end_names_the_unit(self):
        cursor = ToyCursor("")
        with pytest.raises(ToyError) as excinfo:
            cursor.next()
        assert excinfo.value.message == "unexpected end of toy program"
        assert excinfo.value.token is None

    def test_accept_kind_only_or_one_of_several_values(self):
        cursor = ToyCursor("in x let")
        assert cursor.accept("name") is None
        assert cursor.accept("keyword", "LET") is None
        assert cursor.accept("keyword", "LET", "IN").value == "IN"
        assert cursor.accept("name").value == "x"
        assert cursor.accept("keyword").value == "LET"
        assert cursor.accept("keyword") is None  # end of input

    def test_expect_reports_the_offending_token(self):
        cursor = ToyCursor("x (")
        assert cursor.expect("name").value == "x"
        with pytest.raises(ToyError) as excinfo:
            cursor.expect("rparen")
        assert excinfo.value.message == "expected rparen, got '('"
        assert excinfo.value.token.position == 2
        with pytest.raises(ToyError, match="expected IN, got 'x'"):
            ToyCursor("x").expect("keyword", "IN")

    def test_quote_is_how_a_language_names_what_it_expected(self):
        quoting = Lexer(r"(?P<ws>\s+)|(?P<name>\w+)", ToyError, unit="x",
                        quote=repr)

        class Quoting(TokenCursor):
            lexer = quoting

        with pytest.raises(ToyError, match="expected 'semi', got 'x'"):
            Quoting("x").expect("semi")

    def test_integer(self):
        cursor = ToyCursor("12 1.5")
        assert cursor.integer(cursor.next()) == 12
        with pytest.raises(ToyError, match="expected an integer, got '1.5'"):
            cursor.integer(cursor.next())

    def test_nesting_is_accepted_at_the_bound_and_refused_one_past_it(self):
        at_bound = "(" * MAX_NESTING + ")" * MAX_NESTING
        assert ToyCursor(at_bound).parens() == MAX_NESTING
        with pytest.raises(ToyError) as excinfo:
            ToyCursor("(" + at_bound + ")").parens()
        assert str(MAX_NESTING) in excinfo.value.message

    def test_ascend_gives_the_level_back(self):
        cursor = ToyCursor("() " * (MAX_NESTING * 3))
        while cursor.peek() is not None:
            assert cursor.parens() == 1


class TestCharFromCode:
    @pytest.mark.parametrize("digits, base, expected", [
        ("41", 16, "A"), ("65", 10, "A"), ("10FFFF", 16, "\U0010ffff"),
        ("0", 10, "\x00"),
    ])
    def test_valid(self, digits, base, expected):
        assert char_from_code(digits, base) == expected

    @pytest.mark.parametrize("digits, base", [
        ("", 10), ("ZZ", 16), ("ZZZZ", 16), ("FFFFFFFF", 16),
        ("1114112", 10), ("99999999999", 10), ("9" * 5000, 10),
        ("D800", 16), ("+41", 16), (" 41", 16), ("4_1", 16), ("-1", 10),
        ("٤١", 10),
    ])
    def test_not_a_character(self, digits, base):
        assert char_from_code(digits, base) is None
