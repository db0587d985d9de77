"""RDF term model: IRIs, blank nodes, literals and triples.

Terms are immutable value objects so they can be used as dictionary keys in
the indexed graph.  A :class:`Triple` is a named tuple-like dataclass of
(subject, predicate, object) with the usual RDF positional constraints
enforced at construction time.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import re
import threading
from dataclasses import dataclass, field
from typing import Union

from ..errors import RdfError

_IRI_FORBIDDEN = re.compile(r"[<>\"{}|^`\\\x00-\x20]")


@dataclass(frozen=True, slots=True)
class IRI:
    """An absolute or relative IRI reference."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise RdfError("IRI must be non-empty")
        if _IRI_FORBIDDEN.search(self.value):
            raise RdfError(f"IRI contains forbidden characters: {self.value!r}")

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        """N-Triples / Turtle rendering."""
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """Heuristic local part: text after the last '#' or '/'."""
        for sep in ("#", "/"):
            if sep in self.value:
                candidate = self.value.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return self.value

    @property
    def namespace_part(self) -> str:
        """Heuristic namespace: everything up to and including the last '#' or '/'."""
        local = self.local_name
        if local != self.value:
            return self.value[: len(self.value) - len(local)]
        return ""


_blank_counter = itertools.count(1)
_blank_lock = threading.Lock()


@dataclass(frozen=True, slots=True)
class BlankNode:
    """An anonymous RDF node; fresh labels are generated when omitted."""

    label: str = field(default="")

    def __post_init__(self) -> None:
        if not self.label:
            with _blank_lock:
                object.__setattr__(self, "label", f"b{next(_blank_counter)}")
        if not re.match(r"[A-Za-z0-9_]+\Z", self.label):
            raise RdfError(f"invalid blank node label: {self.label!r}")

    def __str__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        """N-Triples / Turtle rendering."""
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with optional datatype IRI or language tag.

    Exactly one of ``datatype`` / ``language`` may be set; a plain literal
    has neither (it is implicitly ``xsd:string`` per RDF 1.1, but we keep
    the distinction for faithful round-tripping).
    """

    lexical: str
    datatype: IRI | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise RdfError("literal cannot have both datatype and language")
        if self.language is not None and not re.match(
                r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*\Z", self.language):
            raise RdfError(f"invalid language tag: {self.language!r}")

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        """N-Triples / Turtle rendering."""
        return n3(self)

    def to_python(self):
        """Convert to a native Python value based on the XSD datatype."""
        if self.datatype is None:
            return self.lexical
        name = self.datatype.local_name
        try:
            if name in ("integer", "int", "long", "short", "byte",
                        "nonNegativeInteger", "positiveInteger"):
                return int(self.lexical)
            if name in ("decimal", "double", "float"):
                return float(self.lexical)
            if name == "boolean":
                return self.lexical.strip().lower() in ("true", "1")
            if name == "date":
                return _dt.date.fromisoformat(self.lexical.strip())
            if name == "dateTime":
                return _dt.datetime.fromisoformat(self.lexical.strip())
        except ValueError as exc:
            raise RdfError(
                f"literal {self.lexical!r} is not a valid {name}") from exc
        return self.lexical


Subject = Union[IRI, BlankNode]
Predicate = IRI
Object = Union[IRI, BlankNode, Literal]
Term = Union[IRI, BlankNode, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF statement (subject, predicate, object)."""

    subject: Subject
    predicate: Predicate
    object: Object

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise RdfError(
                f"triple subject must be IRI or BlankNode, got {type(self.subject).__name__}")
        if not isinstance(self.predicate, IRI):
            raise RdfError(
                f"triple predicate must be IRI, got {type(self.predicate).__name__}")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise RdfError(
                f"triple object must be IRI, BlankNode or Literal, got "
                f"{type(self.object).__name__}")

    def __iter__(self):
        yield self.subject
        yield self.predicate
        yield self.object

    def n3(self) -> str:
        """N-Triples / Turtle rendering."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


_N3_ESCAPED = re.compile(r'[\\"\n\r\t]')


def quoted(lexical: str) -> str:
    """A lexical form as an N-Triples / Turtle string, quotes included."""
    if _N3_ESCAPED.search(lexical) is None:
        return f'"{lexical}"'
    return '"' + (lexical.replace("\\", "\\\\").replace('"', '\\"')
                  .replace("\n", "\\n").replace("\r", "\\r")
                  .replace("\t", "\\t")) + '"'


_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_BOOLEAN, XSD_INTEGER, XSD_DOUBLE, XSD_DATE_TIME, XSD_DATE = (
    IRI(_XSD + name)
    for name in ("boolean", "integer", "double", "dateTime", "date"))


def literal_parts(value) -> tuple[str, IRI | None, str | None]:
    """(lexical form, datatype, language) of a literal, or of the one
    :func:`python_to_literal` makes of a value: a module ``XSD_*``
    datatype and the value's own lexical form, so ``1``, ``1.0`` and
    ``True`` (or one instant in two zones) stay apart."""
    if isinstance(value, str):
        return value, None, None
    if isinstance(value, Literal):
        return value.lexical, value.datatype, value.language
    if isinstance(value, bool):
        return ("true" if value else "false"), XSD_BOOLEAN, None
    if isinstance(value, int):
        return str(value), XSD_INTEGER, None
    if isinstance(value, float):
        return repr(value), XSD_DOUBLE, None
    if isinstance(value, _dt.datetime):
        return value.isoformat(), XSD_DATE_TIME, None
    if isinstance(value, _dt.date):
        return value.isoformat(), XSD_DATE, None
    raise RdfError(f"cannot convert {type(value).__name__} to RDF literal")


def python_to_literal(value) -> Literal:
    """Build a typed literal from a native Python value."""
    if isinstance(value, Literal):
        return value
    return Literal(*literal_parts(value))


def n3(term) -> str:
    """N-Triples text of a term, or of ``python_to_literal(term)``."""
    if type(term) is str:  # the commonest object: a plain literal
        return quoted(term)
    if isinstance(term, (IRI, BlankNode)):
        return term.n3()
    lexical, datatype, language = literal_parts(term)
    if language is not None:
        return f"{quoted(lexical)}@{language}"
    if datatype is not None:
        return f"{quoted(lexical)}^^<{datatype.value}>"
    return quoted(lexical)
