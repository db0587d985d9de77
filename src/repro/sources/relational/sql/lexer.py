"""SQL lexical grammar; keywords are case-insensitive."""

from __future__ import annotations

from ....errors import SqlSyntaxError
from ....lexing import MISMATCH, Lexer, Token

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO",
    "VALUES", "CREATE", "TABLE", "DROP", "ALTER", "RENAME", "COLUMN",
    "ADD", "UPDATE", "SET", "DELETE", "JOIN", "INNER", "LEFT", "ON",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "GROUP", "HAVING", "DISTINCT",
    "AS", "LIKE", "IN", "IS", "NULL", "TRUE", "FALSE", "INDEX",
    "PRIMARY", "KEY", "TO",
})


def _syntax_error(message: str, statement: str,
                  token: Token | None) -> SqlSyntaxError:
    if token is not None and token.kind == MISMATCH:
        return SqlSyntaxError(f"{message} at offset {token.position}")
    return SqlSyntaxError(f"{message} in SQL {statement!r}")


SQL = Lexer(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ne><>|!=)
  | (?P<le><=) | (?P<ge>>=)
  | (?P<eq>=) | (?P<lt><) | (?P<gt>>)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<comma>,) | (?P<dot>\.) | (?P<star>\*) | (?P<semi>;)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*|"[^"]+")
    """,
    _syntax_error, unit="statement", keywords=KEYWORDS,
    decode={"string": lambda raw: raw[1:-1].replace("''", "'"),
            "name": lambda raw: raw.strip('"')})  # a quoted name never folds

tokenize = SQL.scan
