"""S2SQL lexical grammar."""

from __future__ import annotations

from ...errors import S2sqlSyntaxError
from ...lexing import Lexer, Token, unquote

KEYWORDS = frozenset({"SELECT", "WHERE", "AND", "LIKE", "CONTAINS", "TRUE",
                      "FALSE", "FROM"})


def _syntax_error(message: str, query: str,
                  token: Token | None) -> S2sqlSyntaxError:
    if token is None:
        return S2sqlSyntaxError(f"{message} in {query!r}")
    return S2sqlSyntaxError(message, position=token.position)


S2SQL = Lexer(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<ne><>|!=) | (?P<le><=) | (?P<ge>>=)
  | (?P<eq>=) | (?P<lt><) | (?P<gt>>)
  | (?P<path>[A-Za-z_][A-Za-z0-9_\-]*(?:\.[A-Za-z_][A-Za-z0-9_\-]*)+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
    """,
    _syntax_error, unit="query", keywords=KEYWORDS,
    decode={"string": unquote})
