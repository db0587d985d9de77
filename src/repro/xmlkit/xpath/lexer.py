"""Lexical grammar of the XPath subset."""

from __future__ import annotations

from ...errors import XPathError
from ...lexing import MISMATCH, Lexer, Token, unquote


def _syntax_error(message: str, expression: str,
                  token: Token | None) -> XPathError:
    if token is not None and token.kind == MISMATCH:
        message = f"{message} at offset {token.position}"
    return XPathError(f"{message} in XPath {expression!r}")


XPATH = Lexer(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<dslash>//)
  | (?P<slash>/)
  | (?P<dcolon>::)
  | (?P<ddot>\.\.)
  | (?P<dot>\.)
  | (?P<at>@)
  | (?P<lbracket>\[) | (?P<rbracket>\])
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<union>\|)
  | (?P<ne>!=) | (?P<le><=) | (?P<ge>>=) | (?P<eq>=) | (?P<lt><) | (?P<gt>>)
  | (?P<comma>,)
  | (?P<star>\*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-.]*)
    """,
    _syntax_error, unit="expression", decode={"string": unquote})
