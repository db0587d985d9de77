"""Namespace handling and standard vocabularies.

A :class:`Namespace` builds IRIs by attribute or item access
(``RDF.type``, ``XSD["integer"]``).  The :class:`NamespaceManager` keeps a
bidirectional prefix <-> namespace table used by both serializers to emit
compact qualified names.
"""

from __future__ import annotations

import re

from ..errors import RdfError
from .terms import IRI

_PREFIX_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-.]*\Z")


class Namespace:
    """A factory for IRIs sharing a common prefix string."""

    def __init__(self, base: str) -> None:
        if not base:
            raise RdfError("namespace base must be non-empty")
        self._base = base

    @property
    def base(self) -> str:
        """The namespace's base IRI string."""
        return self._base

    def term(self, local: str) -> IRI:
        """Build the IRI ``base + local``."""
        return IRI(self._base + local)

    def __getitem__(self, local: str) -> IRI:
        return self.term(local)

    def __getattr__(self, local: str) -> IRI:
        if local.startswith("_"):
            raise AttributeError(local)
        return self.term(local)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __eq__(self, other) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(self._base)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
RDF_TYPE = RDF.type

WELL_KNOWN_PREFIXES: dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
}


class NamespaceManager:
    """Bidirectional prefix <-> namespace registry."""

    def __init__(self, *, include_well_known: bool = True) -> None:
        self._by_prefix: dict[str, str] = {}
        self._by_base: dict[str, str] = {}
        if include_well_known:
            for prefix, namespace in WELL_KNOWN_PREFIXES.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: Namespace | str,
             *, replace: bool = False) -> None:
        """Register ``prefix`` for ``namespace``.

        Re-binding an existing prefix to a different base raises unless
        ``replace`` is set; binding the same pair twice is a no-op.
        """
        if not _PREFIX_RE.match(prefix):
            raise RdfError(f"invalid namespace prefix: {prefix!r}")
        base = namespace.base if isinstance(namespace, Namespace) else namespace
        existing = self._by_prefix.get(prefix)
        if existing is not None and existing != base and not replace:
            raise RdfError(
                f"prefix {prefix!r} already bound to {existing!r}")
        if existing is not None and replace:
            self._by_base.pop(existing, None)
        self._by_prefix[prefix] = base
        # Keep the first prefix registered for a base as canonical.
        self._by_base.setdefault(base, prefix)

    def expand(self, qname: str) -> IRI:
        """Expand ``prefix:local`` to a full IRI."""
        if ":" not in qname:
            raise RdfError(f"not a qualified name: {qname!r}")
        prefix, local = qname.split(":", 1)
        base = self._by_prefix.get(prefix)
        if base is None:
            raise RdfError(f"unknown namespace prefix: {prefix!r}")
        return IRI(base + local)

    def compact(self, iri: IRI) -> str | None:
        """Return ``prefix:local`` for ``iri`` if a binding covers it."""
        best_base = ""
        best_prefix = None
        for base, prefix in self._by_base.items():
            if iri.value.startswith(base) and len(base) > len(best_base):
                local = iri.value[len(base):]
                if local == "" or _PREFIX_RE.match(local):
                    best_base = base
                    best_prefix = prefix
        if best_prefix is None:
            return None
        return f"{best_prefix}:{iri.value[len(best_base):]}"

    def namespaces(self) -> list[tuple[str, str]]:
        """All (prefix, base) pairs, sorted by prefix."""
        return sorted(self._by_prefix.items())
