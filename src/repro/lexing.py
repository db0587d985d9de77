"""The one scanner and the one token cursor under every little language.

S2SQL comes in, every source is reached through a rule in *its* language
(SQL, XPath, WebL) and OWL goes out as Turtle that SPARQL reads back: six
front ends.  Each *declares* a :class:`Lexer` — its token table, keywords,
per-kind decoders and error factory — and subclasses :class:`TokenCursor`
for its grammar; the scan loop, the cursor, integer conversion and the
nesting bound are written here once, so a malformed rule or query in any
of them can only surface as that language's typed syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

#: Deepest nesting (parentheses, predicates, blocks, blank-node property
#: lists) a front end accepts.  A constant, not an option: it is sized
#: against the interpreter's stack.  The longest precedence ladder (WebL's)
#: spends eight frames per level, so 64 levels stay inside the default
#: 1000-frame recursion limit even when the parser is entered from a deep
#: caller.  The XML parser takes it for element depth too, where it does
#: limit documents (docs/api.md, "Moved in 2.6").
MAX_NESTING = 64

#: Most binary operators (``or``, ``AND``, ``|``, ``&&`` ...) one text may
#: chain, sized against the stack like :data:`MAX_NESTING`: a parser loops
#: over a chain, but compiling and evaluating recurse a frame per operator,
#: and a chain in parentheses hangs below the one around it.
MAX_CHAIN = 256

#: Kind of the token an error factory receives for a character that no
#: rule of the table matches.
MISMATCH = "mismatch"


@dataclass(slots=True)  # not frozen: that quadruples the cost of a token
class Token:
    """One lexical token: kind, decoded text, offset and 1-based line."""
    kind: str
    value: str
    position: int
    line: int


#: ``(message, source text, offending token or None at end of input)`` ->
#: the language's syntax error, worded and located the way it always was.
ErrorFactory = Callable[[str, str, "Token | None"], Exception]


def unquote(raw: str) -> str:
    """Decoder for literals whose value is the text between the delimiters."""
    return raw[1:-1]


def char_from_code(digits: str, base: int) -> str | None:
    """The character a numeric reference (``&#x41;``, ``\\u0041``) names, or
    ``None`` when ``digits`` is not a number in ``base`` or the number is
    not a Unicode scalar value (out of range, or a surrogate)."""
    if not (digits.isascii() and digits.isalnum()):
        return None  # int() would also take '+41', ' 41 ' and '4_1'
    try:
        char = chr(int(digits, base))
    except (ValueError, OverflowError):
        return None
    return None if "\ud800" <= char <= "\udfff" else char


class Lexer:
    """One language's lexical grammar, as data.

    ``table`` is a verbose regular expression of named groups: a group's
    name is the kind of the tokens it matches, and ``ws`` (whitespace,
    comments) is dropped.  A ``name`` whose ``fold`` is in ``keywords``
    becomes a ``keyword`` token carrying the folded text; any other token's
    value is ``decode[kind](raw)`` where the language declares one.
    ``unit`` names what ends in "unexpected end of ..." and ``quote`` is how
    the language writes the token it expected.
    """

    def __init__(self, table: str, error: ErrorFactory, *, unit: str,
                 keywords: frozenset[str] = frozenset(),
                 fold: Callable[[str], str] = str.upper,
                 decode: Mapping[str, Callable[[str], str]] | None = None,
                 quote: Callable[[str], str] = str) -> None:
        self._match = re.compile(table, re.VERBOSE).match
        if self._match(""):
            raise ValueError("a token rule matches the empty string")
        self.error = error
        self.unit = unit
        self.keywords = keywords
        self.fold = fold
        self.decode = decode or {}
        self.quote = quote

    def scan(self, text: str) -> list[Token]:
        """Tokenize ``text``, dropping whitespace and comments."""
        tokens: list[Token] = []
        match_at = self._match
        keywords, fold, decoders = self.keywords, self.fold, self.decode
        position, line, end = 0, 1, len(text)
        while position < end:
            match = match_at(text, position)
            if match is None:
                raise self.error(
                    f"unexpected character {text[position]!r}", text,
                    Token(MISMATCH, text[position], position, line))
            kind, raw = match.lastgroup, match.group()
            if kind == "name" and (folded := fold(raw)) in keywords:
                tokens.append(Token("keyword", folded, position, line))
            elif kind in decoders:
                tokens.append(Token(kind, decoders[kind](raw), position, line))
            elif kind != "ws":
                tokens.append(Token(kind, raw, position, line))
            line += raw.count("\n")
            position = match.end()
        return tokens


class TokenCursor:
    """Base of every recursive-descent parser: a position in a scanned
    token list, and the only ``peek`` / ``next`` / ``accept`` / ``expect``.
    A grammar subclasses it and sets ``lexer``."""

    lexer: Lexer

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = self.lexer.scan(text)
        self.index = 0
        self.depth = 0
        self.operators = 0

    def error(self, message: str, token: Token | None = None) -> Exception:
        """The language's syntax error for ``message`` at ``token``."""
        return self.lexer.error(message, self.text, token)

    def peek(self, offset: int = 0) -> Token | None:
        """The token ``offset`` ahead, or ``None`` past the end."""
        index = self.index + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> Token:
        """Consume one token; the end of input is a syntax error."""
        index = self.index
        if index >= len(self.tokens):
            raise self.error(f"unexpected end of {self.lexer.unit}")
        self.index = index + 1
        return self.tokens[index]

    def accept(self, kind: str, *values: str) -> Token | None:
        """Consume the next token if it is a ``kind`` (with one of
        ``values``, when any are given); otherwise stay put."""
        index = self.index
        if index < len(self.tokens):
            token = self.tokens[index]
            if token.kind == kind and (not values or token.value in values):
                self.index = index + 1
                return token
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        """Consume the next token, which must be a ``kind`` (``value``)."""
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            raise self.error(f"expected {self.lexer.quote(value or kind)}, "
                             f"got {token.value!r}", token)
        return token

    def integer(self, token: Token) -> int:
        """``token`` as an ``int`` (``LIMIT 1.5`` is a syntax error)."""
        try:
            return int(token.value)
        except ValueError:
            raise self.error(f"expected an integer, got {token.value!r}",
                             token) from None

    def descend(self) -> None:
        """Enter a recursive production; pair with :meth:`ascend`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} levels",
                             self.peek())

    def ascend(self) -> None:
        """Leave the production :meth:`descend` entered."""
        self.depth -= 1

    def chained(self, kind: str, *values: str) -> bool:
        """:meth:`accept` a binary operator, counted against
        :data:`MAX_CHAIN` over the whole text."""
        if self.accept(kind, *values) is None:
            return False
        self.operators += 1
        if self.operators > MAX_CHAIN:
            raise self.error(f"more than {MAX_CHAIN} chained operators "
                             f"(MAX_CHAIN)", self.peek())
        return True
