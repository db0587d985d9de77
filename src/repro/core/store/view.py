"""The semantic store's RDF face: a read-only view over its slices.

The store keeps entities, not triples.  SPARQL and export read a
:class:`StoreGraph`, a snapshot of every stored slice's
:class:`SliceIndex`, which each slice builds when first asked
(``SourceSlice.index``).  See docs/store.md, "The RDF view and SPARQL".
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator

from ...ontology.owlxml import Vocabulary
from ...rdf.namespace import Namespace
from ...rdf.terms import (IRI, Literal, Object, Subject, Triple,
                          python_to_literal)
from ..instances.assembly import AssembledEntity

#: Provenance vocabulary for stored entities.
STORE = Namespace("http://example.org/s2s/store#")


_SOURCE, _RECORD_INDEX, _ENTITY_CLASS = (
    STORE.source, STORE.recordIndex, STORE.entityClass)


def entity_triples(namespace: Namespace, class_name: str,
                   entities: list[AssembledEntity]) -> Iterator[Triple]:
    """Every entity's triples plus its provenance (source, record index
    and the materialization's class), their IRIs and the class and
    source literals shared through one :class:`Vocabulary`.  A value
    with no literal form raises :class:`~repro.errors.RdfError`."""
    vocabulary = Vocabulary(namespace)
    entity_class = source = Literal(class_name)
    for entity in entities:
        for individual in entity.all_individuals():
            yield from vocabulary.triples(individual)
        if source.lexical != entity.source_id:
            source = Literal(entity.source_id)
        primary = vocabulary.iri(entity.primary.identifier)
        yield Triple(primary, _SOURCE, source)
        yield Triple(primary, _RECORD_INDEX,
                     python_to_literal(entity.record_index))
        yield Triple(primary, _ENTITY_CLASS, entity_class)


class SliceIndex:
    """One slice's triples by subject and by predicate: two dicts of
    lists, far leaner than a :class:`~repro.rdf.graph.Graph`.  Keyed by
    IRI text, whose hash Python keeps where an ``IRI`` recomputes it."""

    __slots__ = ("by_subject", "by_predicate")

    def __init__(self, triples: Iterable[Triple]) -> None:
        self.by_subject: dict[str, list[Triple]] = defaultdict(list)
        self.by_predicate: dict[str, list[Triple]] = defaultdict(list)
        for triple in triples:
            self.by_subject[triple.subject.value].append(triple)
            self.by_predicate[triple.predicate.value].append(triple)


class StoreGraph:
    """A read-only snapshot of the store's triples: the index of every
    slice stored when it was taken, so a reader sees one whole version of
    each.  ``triples(s, p, o)``, iteration and ``len`` have set
    semantics: materializations share identifiers (``product`` and
    ``watch``), and a triple several slices hold is yielded once."""

    def __init__(self, indexes: list[SliceIndex]) -> None:
        self._indexes = indexes

    def triples(self, subject: Subject | None = None,
                predicate: IRI | None = None,
                obj: Object | None = None) -> Iterator[Triple]:
        """Yield each distinct triple matching a pattern; ``None`` is a
        wildcard."""
        if (subject is not None and not isinstance(subject, IRI)
                or predicate is not None and not isinstance(predicate, IRI)):
            return  # every subject and predicate the store mints is an IRI
        seen: set[tuple] = set()
        for index in self._indexes:
            if subject is not None:
                found = index.by_subject.get(subject.value, ())
                if predicate is not None:
                    found = [triple for triple in found
                             if triple.predicate.value == predicate.value]
            elif predicate is not None:
                found = index.by_predicate.get(predicate.value, ())
            else:
                found = chain.from_iterable(index.by_subject.values())
            for triple in found:
                if obj is not None and triple.object != obj:
                    continue
                # cheaper to hash than the triple, and as distinct
                key = (triple.subject.value, triple.predicate.value,
                       triple.object)
                if key not in seen:
                    seen.add(key)
                    yield triple

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __len__(self) -> int:
        return sum(1 for _triple in self)
