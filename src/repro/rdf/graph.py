"""An indexed, in-memory RDF triple store.

The graph maintains three hash indexes (SPO, POS, OSP) so that any triple
pattern with at least one bound position is answered without a full scan.
This is the storage layer under both the ontology model and the OWL output
of the instance generator, and its index design is one of the ablations
measured in benchmark E2 (see DESIGN.md section 7).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from ..errors import RdfError
from .namespace import NamespaceManager, RDF
from .terms import IRI, BlankNode, Object, Predicate, Subject, Triple


class Graph:
    """A set of RDF triples with pattern-matching access paths."""

    def __init__(self, *, namespace_manager: NamespaceManager | None = None) -> None:
        self._triples: set[Triple] = set()
        self._spo: dict[Subject, dict[Predicate, set[Object]]] = defaultdict(
            lambda: defaultdict(set))
        self._pos: dict[Predicate, dict[Object, set[Subject]]] = defaultdict(
            lambda: defaultdict(set))
        self._osp: dict[Object, dict[Subject, set[Predicate]]] = defaultdict(
            lambda: defaultdict(set))
        self.namespace_manager = namespace_manager or NamespaceManager()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, subject: Subject, predicate: Predicate, obj: Object) -> bool:
        """Add one triple; returns True if it was not already present."""
        return self.add_triple(Triple(subject, predicate, obj))

    def add_triple(self, triple: Triple) -> bool:
        """Add a :class:`Triple`; returns True if newly inserted."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        self._spo[subject][predicate].add(obj)
        self._pos[predicate][obj].add(subject)
        self._osp[obj][subject].add(predicate)
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        added = 0
        for triple in triples:
            if self.add_triple(triple):
                added += 1
        return added

    def remove(self, subject: Subject | None = None,
               predicate: Predicate | None = None,
               obj: Object | None = None) -> int:
        """Remove all triples matching the pattern; returns removal count."""
        victims = list(self.triples(subject, predicate, obj))
        for triple in victims:
            self._triples.discard(triple)
            self._discard_index(self._spo, triple.subject, triple.predicate,
                                triple.object)
            self._discard_index(self._pos, triple.predicate, triple.object,
                                triple.subject)
            self._discard_index(self._osp, triple.object, triple.subject,
                                triple.predicate)
        return len(victims)

    @staticmethod
    def _discard_index(index, first, second, third) -> None:
        bucket = index.get(first)
        if bucket is None:
            return
        inner = bucket.get(second)
        if inner is None:
            return
        inner.discard(third)
        if not inner:
            del bucket[second]
        if not bucket:
            del index[first]

    def clear(self) -> None:
        """Remove every triple."""
        self._triples.clear()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples(self, subject: Subject | None = None,
                predicate: Predicate | None = None,
                obj: Object | None = None) -> Iterator[Triple]:
        """Yield triples matching a pattern; ``None`` is a wildcard.

        Dispatches to the index whose bound positions narrow the scan most.
        """
        if subject is not None and predicate is not None and obj is not None:
            candidate = Triple(subject, predicate, obj)
            if candidate in self._triples:
                yield candidate
            return
        if subject is not None:
            by_pred = self._spo.get(subject, {})
            predicates = [predicate] if predicate is not None else list(by_pred)
            for pred in predicates:
                for o in by_pred.get(pred, ()):
                    if obj is None or o == obj:
                        yield Triple(subject, pred, o)
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate, {})
            objects = [obj] if obj is not None else list(by_obj)
            for o in objects:
                for s in by_obj.get(o, ()):
                    yield Triple(s, predicate, o)
            return
        if obj is not None:
            by_subj = self._osp.get(obj, {})
            for s, preds in by_subj.items():
                for pred in preds:
                    yield Triple(s, pred, obj)
            return
        yield from self._triples

    def subjects(self, predicate: Predicate | None = None,
                 obj: Object | None = None) -> Iterator[Subject]:
        """Distinct subjects matching the pattern."""
        seen: set[Subject] = set()
        for triple in self.triples(None, predicate, obj):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def objects(self, subject: Subject | None = None,
                predicate: Predicate | None = None) -> Iterator[Object]:
        """Distinct objects matching the pattern."""
        seen: set[Object] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def predicates(self, subject: Subject | None = None,
                   obj: Object | None = None) -> Iterator[Predicate]:
        """Distinct predicates matching the pattern."""
        seen: set[Predicate] = set()
        for triple in self.triples(subject, None, obj):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def value(self, subject: Subject | None = None,
              predicate: Predicate | None = None,
              obj: Object | None = None):
        """Return the single term filling the one unbound position, or None.

        Raises :class:`RdfError` when more than one value matches, because a
        silent arbitrary choice hides data problems.
        """
        unbound = [name for name, term in
                   (("subject", subject), ("predicate", predicate), ("object", obj))
                   if term is None]
        if len(unbound) != 1:
            raise RdfError("value() requires exactly one unbound position")
        results = list(self.triples(subject, predicate, obj))
        if not results:
            return None
        values = {getattr(t, unbound[0]) for t in results}
        if len(values) > 1:
            raise RdfError(
                f"value() is ambiguous: {len(values)} candidates for {unbound[0]}")
        return next(iter(values))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def instances_of(self, class_iri: IRI) -> Iterator[Subject]:
        """Subjects with ``rdf:type class_iri``."""
        yield from self.subjects(RDF.type, class_iri)

    def copy(self) -> "Graph":
        """An independent copy sharing the namespace manager."""
        clone = Graph(namespace_manager=self.namespace_manager)
        clone.update(self._triples)
        return clone

    def __or__(self, other: "Graph") -> "Graph":
        merged = self.copy()
        merged.update(other)
        return merged

    def isomorphic_signature(self) -> frozenset[str]:
        """A cheap comparison key ignoring blank-node labels.

        Blank nodes are replaced with a placeholder; two graphs with the
        same signature contain the same ground structure.  This is not a
        full graph-isomorphism check (bnode-heavy graphs may collide) but is
        sufficient for the serializer round-trip tests where blank nodes are
        rare and structurally distinct.
        """
        def render(term) -> str:
            if isinstance(term, BlankNode):
                return "_:"
            return term.n3()

        return frozenset(
            f"{render(t.subject)} {render(t.predicate)} {render(t.object)}"
            for t in self._triples)
