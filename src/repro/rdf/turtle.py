"""Turtle (Terse RDF Triple Language) serializer and parser.

Supports the subset of Turtle the middleware itself produces plus the common
authoring conveniences: ``@prefix`` / ``@base`` directives, qualified names,
``a`` for ``rdf:type``, predicate lists (``;``), object lists (``,``),
anonymous blank nodes (``[...]``), collections are *not* supported (the
middleware never emits them), numeric/boolean shorthand literals, language
tags and datatyped literals with long or short quoted strings.
"""

from __future__ import annotations

import re

from ..errors import RdfSyntaxError
from ..lexing import Lexer, Token, TokenCursor, char_from_code
from .graph import Descriptions, Graph, ordered_objects, subject_order
from .namespace import RDF_TYPE, NamespaceManager
from .terms import (IRI, BlankNode, Literal, Object, Subject, literal_parts,
                    n3, quoted)

_XSD = "http://www.w3.org/2001/XMLSchema#"

# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def write_turtle(manager: NamespaceManager,
                 descriptions: Descriptions) -> str:
    """Turtle text of ``descriptions``: every bound prefix, then a block
    per subject, ``a`` first, then predicates by IRI, objects in
    N-Triples order."""
    texts: dict[str, str] = {}

    def iri_text(iri: IRI) -> str:
        text = texts.get(iri.value)
        if text is None:
            qname = manager.compact(iri)
            text = texts[iri.value] = qname if qname is not None else iri.n3()
        return text

    def term_text(term) -> str:
        if type(term) is str:  # the commonest object: a plain literal
            return quoted(term)
        if isinstance(term, IRI):
            return iri_text(term)
        if isinstance(term, BlankNode):
            return term.n3()
        lexical, datatype, language = literal_parts(term)
        if datatype is not None:
            return f"{quoted(lexical)}^^{iri_text(datatype)}"
        return n3(term)

    lines = [f"@prefix {prefix}: <{base}> ."
             for prefix, base in manager.namespaces()]
    if lines:
        lines.append("")
    for subject, predicates in sorted(descriptions, key=subject_order):
        chunks = []
        for predicate, objects in sorted(predicates, key=_predicate_order):
            if objects:
                name = ("a" if predicate.value == RDF_TYPE.value
                        else iri_text(predicate))
                chunks.append(f"    {name} " + ", ".join(
                    [term_text(o) for o in ordered_objects(objects)]))
        lines += [f"{term_text(subject)}\n" + " ;\n".join(chunks) + " .", ""]
    return "\n".join(lines).rstrip() + "\n"


def _predicate_order(pair: tuple[IRI, object]) -> tuple[bool, str]:
    return pair[0].value != RDF_TYPE.value, pair[0].value


def serialize_turtle(graph: Graph) -> str:
    """Render ``graph`` as a Turtle document grouped by subject."""
    return write_turtle(graph.namespace_manager, graph.descriptions())


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _syntax_error(message: str, document: str,
                  token: Token | None) -> RdfSyntaxError:
    return RdfSyntaxError(message, line=token.line if token else None)


TURTLE = Lexer(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<longstr>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<iri><[^<>\s]*>)
  | (?P<prefix_directive>@prefix\b)
  | (?P<base_directive>@base\b)
  | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<punct>[;,.\[\]()])
  | (?P<number>[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?))
  | (?P<bnode>_:[A-Za-z0-9_]+)
  | (?P<qname>[A-Za-z_][A-Za-z0-9_\-.]*?:[A-Za-z0-9_][A-Za-z0-9_\-.]*|[A-Za-z_][A-Za-z0-9_\-.]*?:|:[A-Za-z0-9_][A-Za-z0-9_\-.]*)
  | (?P<keyword>[A-Za-z]+)
    """,
    _syntax_error, unit="Turtle document", quote=repr)

_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(?:u(.{0,4})|U(.{0,8})|(.))", re.DOTALL)


def unescape(text: str, line: int | None = None) -> str:
    """Decode the string escapes Turtle and N-Triples share; a ``\\u`` /
    ``\\U`` that names no character is a syntax error at ``line``."""
    def replace(match: re.Match) -> str:
        if match[3] is not None:
            return _ESCAPES.get(match[3], match[0])
        digits, width = (match[1], 4) if match[1] is not None else (match[2], 8)
        char = char_from_code(digits, 16) if len(digits) == width else None
        if char is None:
            raise RdfSyntaxError(f"bad character escape {match[0]!r}",
                                 line=line)
        return char

    return _ESCAPE_RE.sub(replace, text)


class _Parser(TokenCursor):
    """Recursive-descent Turtle parser emitting into a :class:`Graph`."""

    lexer = TURTLE

    def __init__(self, text: str, base_iri: str) -> None:
        super().__init__(text)
        self._base = base_iri
        self._graph = Graph(namespace_manager=NamespaceManager())
        self._manager = self._graph.namespace_manager
        self._bnodes: dict[str, BlankNode] = {}

    def parse(self) -> Graph:
        while self.peek() is not None:
            self._statement()
        return self._graph

    def _iri(self) -> str:
        token = self.next()
        if token.kind != "iri":
            raise self.error(f"expected IRI, got {token.value!r}", token)
        return token.value[1:-1]

    def _statement(self) -> None:
        if self.accept("prefix_directive"):
            prefix = self.next()
            if prefix.kind != "qname" or not prefix.value.endswith(":"):
                raise self.error(
                    f"expected prefix name, got {prefix.value!r}", prefix)
            self._manager.bind(prefix.value[:-1] or "_default",
                               self._resolve(self._iri()), replace=True)
        elif self.accept("base_directive"):
            self._base = self._iri()
        else:
            self._predicate_object_list(self._subject())
        self.expect("punct", ".")

    def _resolve(self, iri_text: str) -> str:
        if self._base and "://" not in iri_text and not iri_text.startswith(
                ("urn:", "mailto:")):
            return self._base + iri_text
        return iri_text

    def _node(self, token: Token) -> Subject | None:
        """The IRI or blank node ``token`` opens, if it opens one."""
        if token.kind == "iri":
            return IRI(self._resolve(token.value[1:-1]))
        if token.kind == "qname":
            return self._expand_qname(token)
        if token.kind == "bnode":
            if token.value not in self._bnodes:
                self._bnodes[token.value] = BlankNode()
            return self._bnodes[token.value]
        if token.kind == "punct" and token.value == "[":
            node = BlankNode()
            if not self.accept("punct", "]"):
                self.descend()
                self._predicate_object_list(node)
                self.expect("punct", "]")
                self.ascend()
            return node
        return None

    def _subject(self) -> Subject:
        token = self.next()
        node = self._node(token)
        if node is None:
            raise self.error(f"expected subject, got {token.value!r}", token)
        return node

    def _expand_qname(self, token: Token) -> IRI:
        prefix, _, local = token.value.partition(":")
        try:
            return self._manager.expand(f"{prefix or '_default'}:{local}")
        except Exception as exc:
            raise self.error(str(exc), token) from exc

    def _predicate_object_list(self, subject: Subject) -> None:
        while True:
            predicate = self._predicate()
            self._graph.add(subject, predicate, self._object())
            while self.accept("punct", ","):
                self._graph.add(subject, predicate, self._object())
            if not self.accept("punct", ";"):
                return
            following = self.peek()
            if (following is not None and following.kind == "punct"
                    and following.value in ".]"):
                return

    def _predicate(self) -> IRI:
        token = self.next()
        if token.kind == "keyword" and token.value == "a":
            return RDF_TYPE
        if token.kind == "iri":
            return IRI(self._resolve(token.value[1:-1]))
        if token.kind == "qname":
            return self._expand_qname(token)
        raise self.error(f"expected predicate, got {token.value!r}", token)

    def _object(self) -> Object:
        token = self.next()
        kind, value = token.kind, token.value
        node = self._node(token)
        if node is not None:
            return node
        if kind in ("string", "longstr"):
            lexical = unescape(value[3:-3] if kind == "longstr"
                               else value[1:-1], token.line)
            langtag = self.accept("langtag")
            if langtag is not None:
                return Literal(lexical, language=langtag.value[1:])
            if self.accept("dtype"):
                datatype = self.next()
                if datatype.kind == "iri":
                    return Literal(lexical,
                                   IRI(self._resolve(datatype.value[1:-1])))
                if datatype.kind == "qname":
                    return Literal(lexical, self._expand_qname(datatype))
                raise self.error(
                    f"expected datatype IRI, got {datatype.value!r}", datatype)
            return Literal(lexical)
        if kind == "number":
            if re.fullmatch(r"[+-]?\d+", value):
                return Literal(value, IRI(_XSD + "integer"))
            if "e" in value.lower():
                return Literal(value, IRI(_XSD + "double"))
            return Literal(value, IRI(_XSD + "decimal"))
        if kind == "keyword" and value in ("true", "false"):
            return Literal(value, IRI(_XSD + "boolean"))
        raise self.error(f"expected object, got {value!r}", token)


def parse_turtle(text: str, *, base_iri: str = "") -> Graph:
    """Parse a Turtle document into a fresh :class:`Graph`."""
    return _Parser(text, base_iri).parse()
