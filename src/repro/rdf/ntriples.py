"""N-Triples serializer and parser.

The simplest RDF line format: one triple per line in fully-expanded form.
Added as the proof case for the paper's "other outputs can easily be
adapted" claim (§2.6) — the whole adapter is a few dozen lines over the
existing term model.
"""

from __future__ import annotations

import re

from ..errors import RdfSyntaxError
from .graph import Graph
from .namespace import NamespaceManager
from .terms import IRI, BlankNode, Literal
from .turtle import unescape

_LINE_RE = re.compile(
    r"""\s*
    (?P<subject><[^>]*>|_:[A-Za-z0-9_]+)\s+
    (?P<predicate><[^>]*>)\s+
    (?P<object><[^>]*>|_:[A-Za-z0-9_]+|"(?:[^"\\]|\\.)*"
        (?:\^\^<[^>]*>|@[A-Za-z0-9\-]+)?)\s*
    \.\s*(?:\#.*)?$""",
    re.VERBOSE,
)


def serialize_ntriples(graph: Graph) -> str:
    """One ``subject predicate object .`` line per triple, sorted."""
    return "".join(sorted(triple.n3() + "\n" for triple in graph))


def _parse_term(token: str, bnodes: dict[str, BlankNode], line: int):
    if token.startswith("<"):
        return IRI(token[1:-1])
    if token.startswith("_:"):
        label = token[2:]
        if label not in bnodes:
            bnodes[label] = BlankNode()
        return bnodes[label]
    # literal
    match = re.match(r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@([A-Za-z0-9\-]+))?\Z',
                     token)
    if match is None:
        raise RdfSyntaxError(f"malformed N-Triples term: {token!r}")
    lexical = unescape(match.group(1), line)
    datatype, language = match.group(2), match.group(3)
    if datatype:
        return Literal(lexical, IRI(datatype))
    if language:
        return Literal(lexical, language=language)
    return Literal(lexical)


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a fresh :class:`Graph`."""
    graph = Graph(namespace_manager=NamespaceManager())
    bnodes: dict[str, BlankNode] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise RdfSyntaxError(f"malformed N-Triples line: {line!r}",
                                 line=line_number)
        subject = _parse_term(match.group("subject"), bnodes, line_number)
        predicate = _parse_term(match.group("predicate"), bnodes, line_number)
        obj = _parse_term(match.group("object"), bnodes, line_number)
        if isinstance(subject, Literal) or not isinstance(predicate, IRI):
            raise RdfSyntaxError("invalid term positions",
                                 line=line_number)
        graph.add(subject, predicate, obj)  # type: ignore[arg-type]
    return graph
