"""Frozen reference for the store's RDF graph - the model-graph oracle.

Frozen at release 2.9.0, the last store that kept a graph.  Lines edited
since: the imports, once (release 2.27): ``individual_triples`` and
``python_to_literal`` come from the frozen 2.26 per-triple path
(``tests/oracles/rdf_triples_2_26.py``), not from ``src/``, so the
oracle stays independent of the shape-pattern code it checks.

This is the graph writer of ``repro/core/store/store.py`` as it stood
before the store stopped keeping triples: a reference-counted
:class:`~repro.rdf.graph.Graph` of every stored entity, kept in step by
``_put_slice``, which matched a slice's old and new entities as a
multiset by content key and took or dropped triple references only for
the entities left unmatched.  ``test_store_writers.py`` replays every
slice swap a live store makes through it (:meth:`ModelGraph.sync`) and
requires the store's snapshot view to agree with ``ModelGraph.graph``.

What differs from the original is plumbing only.  ``_put_slice`` takes
the key and the source instead of a materialization, because the model
keeps its own ``(key, source) -> slice`` table where the store had
``mat.slices``; the ``_written`` tally and the counter
``store_triples_written_total``, which only reported the work, are left
out; ``_entity_triples`` reads the namespace from the model.
"""

from __future__ import annotations

from datetime import date, datetime

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, Triple
from tests.oracles.rdf_triples_2_26 import (individual_triples,
                                            python_to_literal)

#: Provenance vocabulary for stored entities.
STORE = Namespace("http://example.org/s2s/store#")

# -- content keys ------------------------------------------------------
#
# What ``_put_slice`` matches old and new entities by.  An entity's
# triples depend only on the store namespace, the materialization's
# class and the entity's content, so the key holds everything
# ``_entity_triples`` reads, and two entities with equal keys have equal
# triples.  A value is keyed as its literal tells it apart: ``1``,
# ``1.0``, ``True`` and ``"1"`` differ by type, ``0.0`` and ``-0.0`` by
# ``repr``, one instant written in two zones by ``isoformat``.  A NaN
# keys as its literal does, equal to itself.  Unequal keys for equal
# triples (``[1]`` and ``1``; values in another order) only cost a
# rewrite.

#: value types that are equal exactly when their literals are
_PLAIN = frozenset({str, int, bool, date, Literal})


def _literal_key(value) -> tuple:
    kind = type(value)
    if kind in _PLAIN:
        return kind, value
    if kind is float:
        return kind, repr(value)
    if kind is datetime:
        return kind, value.isoformat()
    # no literal form: never matches, so its triples are built (and
    # refused) again
    return kind, id(value)


def _value_key(value) -> tuple:
    if type(value) is list:
        return list, tuple(map(_literal_key, value))
    return _literal_key(value)


def _content_key(entity) -> tuple:
    """Equal only when the two entities' triples are (see above)."""
    return (entity.source_id, _literal_key(entity.record_index), tuple([
        (individual.identifier, individual.class_name,
         tuple([(name, _value_key(value))
                for name, value in individual.values.items()]),
         tuple([(name, tuple([target.identifier for target in targets]))
                for name, targets in individual.links.items()]))
        for individual in entity.all_individuals()]))


def _entities(slice_) -> list:
    return slice_.entities if slice_ is not None else []


class ModelGraph:
    """The graph a 2.9 store would hold after the same slice swaps."""

    def __init__(self,
                 namespace: str = "http://example.org/s2s/ontology#") -> None:
        self.namespace = Namespace(namespace)
        self.graph = Graph()
        self.graph.namespace_manager.bind("s2s", self.namespace)
        self.graph.namespace_manager.bind("store", STORE)
        self._triple_refs: dict[Triple, int] = {}
        #: ``(key, source_id) -> slice``: what ``mat.slices`` held
        self.slices: dict = {}

    def sync(self, store) -> None:
        """Replay every slice swap ``store`` made since the last sync.
        A swap installs a new slice object, so a slice that is not the
        one the model last saw was swapped."""
        current = {(mat.key, source_id): slice_
                   for mat in store.materializations()
                   for source_id, slice_ in mat.slices.items()}
        for key, source_id in sorted(set(self.slices) | set(current),
                                     key=repr):
            slice_ = current.get((key, source_id))
            if self.slices.get((key, source_id)) is not slice_:
                self._put_slice(key, source_id, slice_)

    def _put_slice(self, key, source_id, slice_):
        """Swap one source's slice for ``slice_`` (None deletes it) and
        return the slice it replaced.

        The only code that writes ``mat.slices``, the triple reference
        counts and the graph.  It pays per changed entity: the old and
        new entities are matched as a multiset by :func:`_content_key`,
        and only the unmatched ones take or drop triple references — the
        new ones first, so a triple both sides hold never leaves the
        graph.  Identifiers are shared between materializations, so a
        triple leaves the graph only when its last owning entity drops
        it."""
        old = self.slices.get((key, source_id))
        unmatched: dict[tuple, list] = {}
        for entity in _entities(old):
            unmatched.setdefault(_content_key(entity), []).append(entity)
        added: list = []
        for entity in _entities(slice_):
            twins = (unmatched.get(_content_key(entity)) if unmatched
                     else None)
            if twins:
                twins.pop()
            else:
                added.append(entity)
        # built before the swap: a value with no literal form is refused
        # with the store as it was
        acquired = list(self._entity_triples(key[0], added))
        if slice_ is None:
            self.slices.pop((key, source_id), None)
        else:
            self.slices[(key, source_id)] = slice_
        refs = self._triple_refs
        for triple in acquired:
            count = refs.get(triple, 0)
            refs[triple] = count + 1
            if not count:
                self.graph.add_triple(triple)
        for triple in self._entity_triples(
                key[0],
                [entity for twins in unmatched.values() for entity in twins]):
            count = refs.get(triple, 0) - 1
            if count > 0:
                refs[triple] = count
            else:
                refs.pop(triple, None)
                self.graph.remove(triple.subject, triple.predicate,
                                  triple.object)
        return old

    def _entity_triples(self, class_name: str, entities: list):
        """Every entity's triples plus its provenance."""
        for entity in entities:
            for individual in entity.all_individuals():
                yield from individual_triples(self.namespace, individual)
            primary = self.namespace[entity.primary.identifier]
            yield Triple(primary, STORE.source, Literal(entity.source_id))
            yield Triple(primary, STORE.recordIndex,
                         python_to_literal(entity.record_index))
            yield Triple(primary, STORE.entityClass, Literal(class_name))
