"""WebL lexical grammar.

Three literal forms: double-quoted strings (with escapes), backquoted
regex literals (verbatim, no escape processing — exactly how the paper's
rule writes ``[0-9a-zA-Z']+``), and numbers.
"""

from __future__ import annotations

import re

from ..errors import WeblSyntaxError
from ..lexing import Lexer, Token, unquote

KEYWORDS = frozenset({
    "var", "if", "else", "while", "each", "in", "return", "true", "false",
    "nil", "and", "or", "not",
})

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}  # any other \x is x itself


def _string(raw: str) -> str:
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[1]), raw[1:-1])


def _syntax_error(message: str, program: str,
                  token: Token | None) -> WeblSyntaxError:
    return WeblSyntaxError(message, line=token.line if token else None)


WEBL = Lexer(
    r"""
    (?P<ws>\s+|//[^\n]*|\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<regex>`[^`]*`)
  | (?P<eq>==) | (?P<ne>!=) | (?P<le><=) | (?P<ge>>=)
  | (?P<assign>=) | (?P<lt><) | (?P<gt>>)
  | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<slash>/) | (?P<percent>%)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<lbracket>\[) | (?P<rbracket>\])
  | (?P<lbrace>\{) | (?P<rbrace>\})
  | (?P<comma>,) | (?P<semi>;) | (?P<dot>\.)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    _syntax_error, unit="program", keywords=KEYWORDS, fold=str, quote=repr,
    decode={"string": _string, "regex": unquote})

tokenize = WEBL.scan
