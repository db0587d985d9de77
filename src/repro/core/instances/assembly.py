"""Record-to-individual assembly.

One aligned source record (attribute ID → raw value) may describe several
related entities at once — the paper's watch page carries the watch's
``brand``/``case`` *and* its provider's ``name``.  The assembler:

1. resolves each attribute path to its owning ontology class;
2. clusters classes that lie on one subclass chain into the most specific
   class (``product`` + ``watch`` attributes → one ``watch`` individual);
3. creates one individual per cluster, coercing raw strings to the
   attribute's declared XSD range;
4. links clusters through the ontology's object properties (the
   ``hasProvider`` edge of Figure 2).

The cluster containing the query class (or a subclass of it) is the
*primary* entity — the thing the query's WHERE conditions apply to.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

from ...errors import ValidationError
from ...ids import AttributePath
from ...ontology.model import Individual
from ...ontology.reasoner import Coercer, Reasoner, coerce_column
from ...ontology.schema import OntologySchema
from ...ontology.validation import link_problems


@dataclass
class AssembledEntity:
    """A primary individual plus the linked satellites built from one
    record; read-only once :meth:`freeze` has run."""

    primary: Individual
    satellites: Sequence[Individual] = field(default_factory=list)
    source_id: str = ""
    record_index: int = 0
    coercion_errors: Sequence[str] = field(default_factory=list)
    #: set by :meth:`freeze`; only then ``codec.wire_texts`` keeps _wire
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)
    _wire: tuple[str, str] | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def all_individuals(self) -> list[Individual]:
        """Primary + satellites in one list."""
        return [self.primary, *self.satellites]

    def value(self, attribute: str, default=None):
        """Attribute lookup across primary and satellites."""
        if attribute in self.primary.values:
            return self.primary.values[attribute]
        for satellite in self.satellites:
            if attribute in satellite.values:
                return satellite.values[attribute]
        return default

    def freeze(self) -> "AssembledEntity":
        """Make this entity read-only in place (idempotent) and return it:
        satellites, coercion errors and link lists become tuples, each
        individual's ``values`` / ``links`` a read-only mapping.  The
        store shares what it froze with every reader (docs/store.md)."""
        for individual in self.all_individuals():
            if type(individual.values) is not MappingProxyType:
                individual.values = MappingProxyType(individual.values)
                individual.links = MappingProxyType({
                    name: tuple(targets)
                    for name, targets in individual.links.items()})
        self.satellites = tuple(self.satellites)
        self.coercion_errors = tuple(self.coercion_errors)
        self._frozen = True
        return self


#: a cell of a typed column whose raw value did not coerce
_FAILED = object()


@dataclass(frozen=True, slots=True)
class _ShapePlan:
    """Everything the schema decides about records of one shape."""

    #: today's cluster order: (most specific class, attribute ids,
    #: attribute names, coercers), the three in step, general -> specific.
    #: Sequences, not a dict by name: two ids landing on one attribute
    #: name both coerce and both report.  Parallel tuples, not a tuple per
    #: field: a sparse source compiles thousands of plans and the garbage
    #: collector walks every container they keep alive.
    clusters: list[tuple[str, tuple[str, ...], tuple[str, ...],
                         tuple[Coercer, ...]]]
    primary: int  # index into ``clusters``
    #: (from cluster, object property name, to cluster)
    links: list[tuple[int, str, int]]
    link_error: str | None  # what its records report instead of an entity
    #: what ``validate_individual`` would say about *every* entity of the
    #: shape, as (cluster, problem without the identifier) in its report
    #: order.  Only links can be wrong: a slot's coercer comes from the
    #: attribute table validation reads, and a coerced value coerces again.
    residual: list[tuple[int, str]]

    def member_order(self) -> list[int]:
        """Cluster indexes in ``all_individuals()`` order."""
        return _member_order(self.primary, len(self.clusters))


class RecordAssembler:
    """Builds :class:`AssembledEntity` objects for one query class.

    What a record becomes is fixed by the schema and by *which* attributes
    the record carries, not by their values, so the schema is consulted
    once per **record shape** — the ordered tuple of attribute ids whose
    value is not ``None`` — and compiled into a :class:`_ShapePlan`.  The
    rows of one shape are then handled a column at a time: ``coerce``
    types each of the plan's columns with its one coercer, ``build``
    zips the typed columns into individuals and links them.  Plans are
    compiled lazily, on the first record of a shape, so an error only
    such a record can raise is raised exactly when one exists.  Plans, resolved attribute
    ids and the reasoner's tables live as long as the assembler (one
    ``generate`` call): nothing to invalidate when the schema changes."""

    def __init__(self, schema: OntologySchema, query_class: str) -> None:
        self.schema = schema
        self.query_class = query_class
        self.reasoner = Reasoner(schema.ontology)
        #: shape -> plan, or None when the shape has no primary cluster
        self.plans: dict[tuple[str, ...], _ShapePlan | None] = {}
        self._prefixes: dict[tuple[str, str], str] = {}
        #: (primary, cluster classes) -> (links, link_error, residual)
        self._linked: dict[tuple, tuple] = {}
        #: attribute id -> (owning class, (attribute id, attribute name))
        self._resolved: dict[str, tuple[str, tuple[str, str]]] = {}

    def plan_for(self, shape: tuple[str, ...]) -> _ShapePlan | None:
        """The plan of a record shape, compiled on first sight; None when
        such records hold nothing of the query class."""
        try:
            return self.plans[shape]
        except KeyError:
            plan = self.plans[shape] = self._compile(shape)
            return plan

    def coerce(self, plan: _ShapePlan, columns: dict[str, list],
               rows: Sequence[int]
               ) -> tuple[list[list[list]], dict[int, list[str]]]:
        """Type the plan's columns for the records ``rows`` (ascending
        indexes into ``columns``, every one carrying the whole shape).

        Returns the typed cells as ``[cluster][slot][position]``,
        ``position`` running over ``rows``, a cell that did not coerce
        being ``_FAILED``; and position -> the messages of its failed
        cells, in cluster then slot order."""
        typed: list[list[list]] = []
        failures: dict[int, list[str]] = {}
        for _specific, ids, names, coercers in plan.clusters:
            cells = []
            for attribute_id, name, coerce in zip(ids, names, coercers):
                raw = columns[attribute_id]
                try:
                    # every record: the column as it is; some: only theirs
                    cells.append(
                        coerce_column(coerce, raw, name)
                        if len(rows) == len(raw) else
                        [coerce(raw[row], name) for row in rows])
                except ValidationError:
                    cells.append(_coerce_dirty(raw, rows, name, coerce,
                                               failures))
            typed.append(cells)
        return typed, failures

    def identifier_prefix(self, class_name: str, source_id: str) -> str:
        """An individual's identifier up to its record index."""
        prefix = self._prefixes.get((class_name, source_id))
        if prefix is None:
            safe_source = re.sub(r"[^A-Za-z0-9_]", "_", source_id)
            prefix = self._prefixes[class_name, source_id] = (
                f"{class_name}_{safe_source}_")
        return prefix

    def build(self, block: ShapeBlock) -> list[AssembledEntity]:
        """The entities of a block; individuals are made and linked a
        cluster at a time."""
        plan = block.plan
        values = _coerced if block.failures else dict
        members: list[list[Individual]] = [
            [Individual(identifier, specific, values(zip(names, record)))
             for identifier, record in zip(identifiers, records)]
            for (specific, _ids, names, _coercers), (identifiers, records)
            in zip(plan.clusters, self._columns(block))]
        for origin, name, target in plan.links:
            for individual, other in zip(members[origin], members[target]):
                individual.links.setdefault(name, []).append(other)
        primaries = members.pop(plan.primary)
        satellites = zip(*members) if members else repeat(())
        failures = block.failures
        return [AssembledEntity(primary, list(others), block.source_id, row,
                                failures.get(position, []))
                for position, (primary, others, row)
                in enumerate(zip(primaries, satellites, block.rows))]

    def cells(self, block: ShapeBlock) -> list[tuple[list, ...]]:
        """Per entity of a block with no failed cell and no two ids on
        one attribute name, what :meth:`build` would give its
        individuals, in ``all_individuals()`` order: the identifier
        followed by the values, in slot order."""
        columns = self._columns(block)
        return list(zip(*[
            [[identifier, *record]
             for identifier, record in zip(*columns[cluster])]
            for cluster in block.plan.member_order()]))

    def _columns(self, block: ShapeBlock) -> list[tuple[list[str], zip]]:
        """Per cluster of the block's plan, in plan order: its
        individuals' identifiers and their typed cells, a tuple per
        entity in slot order."""
        suffixes = list(map(str, block.rows))
        columns = []
        for (specific, _ids, _names, _coercers), cells in zip(
                block.plan.clusters, block.typed):
            prefix = self.identifier_prefix(specific, block.source_id)
            columns.append(([prefix + suffix for suffix in suffixes],
                            zip(*cells)))
        return columns

    # ------------------------------------------------------------------

    def _compile(self, shape: tuple[str, ...]) -> _ShapePlan | None:
        """Resolve one record shape against the schema."""
        by_class: dict[str, list[tuple[str, str]]] = {}
        for attribute_id in shape:
            resolved = self._resolved.get(attribute_id)
            if resolved is None:
                path = AttributePath.parse(attribute_id)
                owner, _prop = self.schema.resolve(path)
                resolved = self._resolved[attribute_id] = (
                    owner, (attribute_id, path.attribute))
            by_class.setdefault(resolved[0], []).append(resolved[1])

        chains = self._cluster_classes(list(by_class))
        primary = next(
            (index for index, chain in enumerate(chains)
             if any(self.reasoner.is_subclass(class_name, self.query_class)
                    for class_name in chain)), None)
        if primary is None:
            return None

        clusters = []
        for chain in chains:
            ids, names = zip(*[field for class_name in chain
                               for field in by_class[class_name]])
            clusters.append((chain[-1], ids, names, tuple(
                self.reasoner.coercer(chain[-1], name) for name in names)))
        classes = tuple([chain[-1] for chain in chains])
        linked = self._linked.get((primary, classes))
        if linked is None:
            linked = self._linked[primary, classes] = self._link(primary,
                                                                 classes)
        return _ShapePlan(clusters, primary, *linked)

    def _link(self, primary: int, classes: tuple[str, ...]
              ) -> tuple[list[tuple[int, str, int]], str | None,
                         list[tuple[int, str]]]:
        """A plan's ``links``, ``link_error`` and ``residual``: decided
        by the clusters' classes alone, so shapes that differ only in
        which attributes they carry share them."""
        between = self.schema.object_properties_between
        primary_class = classes[primary]
        links: list[tuple[int, str, int]] = []
        for index, satellite_class in enumerate(classes):
            if index == primary:
                continue
            forward = between(primary_class, satellite_class)
            if forward:
                links.append((primary, forward[0].name, index))
                continue
            # Also allow satellite → primary direction.
            reverse = between(satellite_class, primary_class)
            if reverse:
                links.append((index, reverse[0].name, primary))
                continue
            return links, (
                f"no object property connects {primary_class!r} "
                f"and {satellite_class!r}; cannot assemble record"), []
        outgoing: dict[int, dict[str, list[str]]] = {}
        for origin, name, target in links:
            outgoing.setdefault(origin, {}).setdefault(name, []).append(
                classes[target])
        return links, None, [
            (index, problem)
            for index in _member_order(primary, len(classes))
            if index in outgoing
            for problem in link_problems(self.reasoner, classes[index],
                                         outgoing[index])]

    # ------------------------------------------------------------------

    def _cluster_classes(self, classes: list[str]) -> list[list[str]]:
        """Group classes lying on one subclass chain; each cluster is
        ordered general → specific."""
        remaining = set(classes)
        clusters: list[list[str]] = []
        # Sort by lineage depth so specific classes absorb their ancestors.
        for class_name in sorted(remaining,
                                 key=lambda c: -len(self.schema.ontology.lineage(c))):
            if class_name not in remaining:
                continue
            chain = [class_name]
            remaining.discard(class_name)
            for ancestor in self.schema.ontology.ancestors(class_name):
                if ancestor in remaining:
                    chain.insert(0, ancestor)
                    remaining.discard(ancestor)
            clusters.append(chain)
        return clusters


@dataclass(frozen=True, slots=True)
class ShapeBlock:
    """Entities of one shape group of one source before any object
    exists: the plan, the typed cells as ``[cluster][slot][position]``,
    and per position its record index and (if any) coercion failures.
    Only the kept positions' cells stay alive (:meth:`of`)."""

    plan: _ShapePlan
    source_id: str
    typed: list[list[list]]
    rows: Sequence[int]
    failures: dict[int, list[str]]

    @classmethod
    def of(cls, plan: _ShapePlan, source_id: str, typed: list[list[list]],
           rows: Sequence[int], keep: Sequence[int] | None,
           failures: dict[int, list[str]]) -> ShapeBlock:
        """The block of the positions ``keep`` (None: all) of a group's
        coerced cells ``typed``, ``rows[position]`` being the record
        index."""
        if keep is not None:
            rows = [rows[position] for position in keep]
            typed = [[[column[position] for position in keep]
                      for column in cells] for cells in typed]
            failures = {new: failures[old] for new, old in enumerate(keep)
                        if old in failures} if failures else failures
        return cls(plan, source_id, typed, rows, failures)

    def __len__(self) -> int:
        return len(self.rows)


class EntityBlocks:
    """A generator's entities before any object exists: per source, in
    answer order, its shape blocks.  A source of one block lists its
    entities in block order; one of several, by record index.

    :meth:`build_into` makes the objects once (under a lock: query batch
    siblings share one answer across threads); the wire writer
    (:func:`~repro.core.instances.codec.blocks_to_wire`) reads the
    columns instead."""

    def __init__(self, assembler: RecordAssembler,
                 sources: list[list[ShapeBlock]]) -> None:
        self.assembler = assembler
        self.sources = sources
        self._count = sum(len(block) for blocks in sources for block in blocks)
        self._lock = threading.Lock()
        self._entities: list[AssembledEntity] | None = None

    def __len__(self) -> int:
        return self._count

    def build_into(self, owner: dict, slot: str) -> list[AssembledEntity]:
        """``owner[slot]`` once it holds the entities: while it holds these
        blocks, a list of its own of the one set of objects, built with
        :meth:`RecordAssembler.build` by whichever reader comes first."""
        with self._lock:
            if self._entities is None:
                self._entities = []
                for blocks in self.sources:
                    built = [entity for block in blocks
                             for entity in self.assembler.build(block)]
                    if len(blocks) > 1:
                        built.sort(key=lambda entity: entity.record_index)
                    self._entities += built
            if owner[slot] is self:
                owner[slot] = list(self._entities)
            return owner[slot]


def _member_order(primary: int, count: int) -> list[int]:
    """Cluster indexes in the order ``all_individuals()`` (and so
    ``validate_individual``'s report) has them: primary first."""
    return [primary, *(index for index in range(count) if index != primary)]


def _coerced(pairs) -> dict[str, object]:
    """``dict(pairs)`` without the failed cells: of two ids on one
    attribute name the last that coerced is kept, at the position of the
    first that did."""
    return {name: cell for name, cell in pairs if cell is not _FAILED}


def _coerce_dirty(raw: list, rows: Sequence[int], name: str, coerce: Coercer,
                  failures: dict[int, list[str]]) -> list:
    """The cells ``rows`` of one column one by one, for a column holding
    a value that does not coerce: the cell becomes ``_FAILED``, the
    message is kept under its position in ``rows``."""
    cells = []
    for position, row in enumerate(rows):
        try:
            cells.append(coerce(raw[row], name))
        except ValidationError as exc:
            cells.append(_FAILED)
            failures.setdefault(position, []).append(str(exc))
    return cells
