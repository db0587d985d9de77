"""The instance population pipeline.

"The ontology population process (OWL instance generation) is executed in
an automatic way … because the extracted information respects the
ontology schema" (paper section 2.6).  The generator turns an
:class:`~repro.core.extractor.manager.ExtractionOutcome` into assembled
entities, recording every anomaly in the error report instead of failing:

* ragged record sets (attribute columns of unequal length);
* values that do not coerce to their declared XSD range;
* records carrying nothing relevant to the query class;
* optional validation of every produced individual against the schema.

``merge_key`` is a documented extension (DESIGN.md section 7): when a list
of attribute names is given, entities whose key values agree are merged
into one individual (multi-source dedup after semantic normalization) —
the capability the semantic-heterogeneity experiment E6 measures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ...errors import QueryError
from ...ontology.schema import OntologySchema
from ..extractor.manager import ExtractionOutcome
from ..extractor.records import SourceRecordSet
from .assembly import (_FAILED, AssembledEntity, EntityBlocks,
                       RecordAssembler, ShapeBlock, _ShapePlan)
from .codec import entities_from_wire, entities_to_wire
from .errors import ErrorReport


#: where a :class:`BuiltOnRead` field keeps what it holds
_SLOT = "_entities"


class BuiltOnRead:
    """The ``entities`` dataclass field, which may hold the
    :class:`EntityBlocks` they are built from: the first read builds
    them (:meth:`EntityBlocks.build_into`), and :func:`unbuilt` looks at
    the blocks without building.  The field's default, an empty tuple,
    is stored as an empty list of the instance's own."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return ()
        entities = instance.__dict__[_SLOT]
        if type(entities) is EntityBlocks:
            entities = entities.build_into(instance.__dict__, _SLOT)
        return entities

    def __set__(self, instance, value) -> None:
        instance.__dict__[_SLOT] = [] if value == () else value


def unbuilt(owner) -> EntityBlocks | None:
    """The blocks ``owner.entities`` is still to be built from, or None
    (built, or not an owner of a :class:`BuiltOnRead` field)."""
    entities = vars(owner).get(_SLOT)
    return entities if type(entities) is EntityBlocks else None


@dataclass
class GenerationResult:
    """Assembled entities + the error channel."""

    #: built on first read; ``len(result)`` does not build
    entities: list[AssembledEntity] = BuiltOnRead()
    errors: ErrorReport = field(default_factory=ErrorReport)
    #: distinct record shapes compiled; one per clean homogeneous source
    #: set, more exactly when a source is sparse or dirty
    shapes: int = 0
    #: records seen, over all sources
    records: int = 0
    #: records that make an entity when no ``conditions`` are given — what
    #: the conditions chose ``entities`` from when they are
    candidates: int = 0

    def __len__(self) -> int:
        blocks = unbuilt(self)
        return len(self.entities if blocks is None else blocks)


class InstanceGenerator:
    """Builds ontology instances from raw extraction output."""

    def __init__(self, schema: OntologySchema, *,
                 validate: bool = True) -> None:
        self.schema = schema
        self.validate = validate

    def generate(self, outcome: ExtractionOutcome, query_class: str,
                 *, merge_key: list[str] | None = None,
                 conditions: Sequence | None = None) -> GenerationResult:
        """Turn an extraction outcome into assembled entities.

        ``conditions`` (a plan's
        :class:`~repro.core.query.planner.ResolvedCondition` list) are
        applied to the typed columns before anything is built: only the
        records satisfying all of them become entities, in the order and
        with the identifiers they would have had, and the error report
        is what it is without them — a rejected record's problems
        included.  Not to be combined with ``merge_key``: a merge can
        hand a non-matching record its twin's value."""
        if conditions and merge_key:
            raise ValueError("conditions cannot be applied before a merge")
        result = GenerationResult()
        assembler = RecordAssembler(self.schema, query_class)

        for problem in outcome.problems:
            result.errors.add("extraction", problem.message,
                              source_id=problem.source_id,
                              attribute_id=problem.attribute_id)
        for path in outcome.missing_attributes:
            result.errors.add("mapping",
                              f"attribute {path} has no mapping entry",
                              attribute_id=str(path))

        incomparable = None
        sources = []
        for source_id in sorted(outcome.record_sets):
            blocks, error = self._generate_source(
                assembler, source_id, outcome.record_sets[source_id],
                conditions, result)
            if blocks:
                sources.append(blocks)
            incomparable = incomparable or error

        result.shapes = len(assembler.plans)
        if incomparable is not None:
            # what the filter would have raised at its first such entity,
            # after generation had run (and not failed) for every source
            raise incomparable
        result.entities = EntityBlocks(assembler, sources)
        if merge_key:
            result.entities = self._merge(result.entities, merge_key,
                                          result.errors)
        return result

    def _generate_source(self, assembler: RecordAssembler, source_id: str,
                         record_set: SourceRecordSet,
                         conditions: Sequence | None,
                         result: GenerationResult
                         ) -> tuple[list[ShapeBlock], QueryError | None]:
        """One source's records: group the rows by shape, then per group
        coerce by column and mask.  Returns the blocks left to build and
        the comparison error of the first record that has one."""
        count = record_set.record_count
        result.records += count
        # attribute id -> column; like ``align()``, a repeated id keeps
        # its first position and its last column
        columns = {str(fragment.attribute): fragment.values
                   for fragment in record_set.fragments}
        if record_set.ragged:
            result.errors.add(
                "extraction",
                f"ragged record set: attribute columns have unequal "
                f"lengths ({[len(f) for f in record_set.fragments]})",
                source_id=source_id)
            columns = {key: column + [None] * (count - len(column))
                       for key, column in columns.items()}
        groups = _shape_groups(columns, count)
        #: record index -> its "generation" errors, in report order
        notes: dict[int, list[str]] = {}
        blocks: list[ShapeBlock] = []
        incomparable: list[tuple[int, QueryError]] = []
        for shape, rows in groups:
            plan = assembler.plan_for(shape)
            if plan is None:
                for row in rows:
                    notes[row] = [f"record {row} holds no attribute of "
                                  f"class {assembler.query_class!r}"]
                continue
            # before the link error, as a record at a time had it: a range
            # no coercer supports escapes from here
            typed, failures = assembler.coerce(plan, columns, rows)
            if plan.link_error is not None:
                for row in rows:
                    notes[row] = [plan.link_error]
                continue
            result.candidates += len(rows)
            for position, messages in failures.items():
                notes[rows[position]] = messages[:]
            if self.validate and plan.residual:
                problems = [(assembler.identifier_prefix(
                    plan.clusters[index][0], source_id), problem)
                    for index, problem in plan.residual]
                for row in rows:
                    notes.setdefault(row, []).extend(
                        f"{prefix}{row}: {problem}"
                        for prefix, problem in problems)
            keep = None
            if conditions:
                keep = _mask(plan, typed, rows, conditions,
                             assembler.reasoner.is_subclass, incomparable)
            if keep is None or keep:
                blocks.append(ShapeBlock.of(plan, source_id, typed, rows,
                                            keep, failures))
        for row in sorted(notes):
            for message in notes[row]:
                result.errors.add("generation", message, source_id=source_id)
        if not incomparable:
            return blocks, None
        return blocks, min(incomparable, key=lambda found: found[0])[1]

    @staticmethod
    def _merge(entities: list[AssembledEntity], merge_key: list[str],
               errors: ErrorReport) -> list[AssembledEntity]:
        """Merge entities agreeing on every merge-key attribute.

        The first-seen entity wins conflicts; differing non-key values are
        reported (they usually reveal an unresolved semantic conflict).
        No input is edited (a stored one is read-only): an entity that
        gains a value or a satellite is replaced by its codec copy, whose
        links point at its own individuals, and the copy takes them."""
        merged: dict[tuple, AssembledEntity] = {}
        order: list[tuple] = []
        copies: set[int] = set()
        for entity in entities:
            key = tuple(entity.value(attribute) for attribute in merge_key)
            if any(part is None for part in key):
                # Entities missing key attributes cannot be deduplicated.
                key = (id(entity),)
            existing = merged.get(key)
            if existing is None:
                merged[key] = entity
                order.append(key)
                continue
            filled: dict[str, object] = {}
            for attribute, value in entity.primary.values.items():
                current = existing.primary.values.get(attribute)
                if current is None:
                    filled[attribute] = value
                elif current != value:
                    errors.add(
                        "generation",
                        f"merge conflict on {attribute!r}: kept {current!r}, "
                        f"dropped {value!r} (from {entity.source_id})",
                        source_id=entity.source_id)
            known = {satellite.class_name for satellite in existing.satellites}
            adopted = []
            for satellite in entity.satellites:
                if satellite.class_name not in known:
                    known.add(satellite.class_name)
                    adopted.append(satellite)
            if not (filled or adopted):
                continue
            if id(existing) not in copies:
                existing, = entities_from_wire(*entities_to_wire([existing]))
                merged[key] = existing
                copies.add(id(existing))
            existing.primary.values.update(filled)
            existing.satellites.extend(adopted)
        return [merged[key] for key in order]


def _shape_groups(columns: dict[str, list], count: int
                  ) -> list[tuple[tuple[str, ...], Sequence[int]]]:
    """The ``count`` records of ``columns`` (all that long) grouped by
    record shape — the ids whose cell is not ``None`` — as (shape,
    ascending record indexes), in the order of each shape's first record.
    A dense source is one group, found without looking at a record."""
    keys = tuple(columns)
    if not count:
        return []
    if not any(None in column for column in columns.values()):
        return [(keys, range(count))]
    groups: dict[tuple[str, ...], list[int]] = {}
    for row, record in enumerate(zip(*columns.values())):
        shape = tuple([key for key, cell in zip(keys, record)
                       if cell is not None])
        groups.setdefault(shape, []).append(row)
    return list(groups.items())


def _mask(plan: _ShapePlan, typed: list[list[list]], rows: Sequence[int],
          conditions: Sequence, is_subclass,
          incomparable: list[tuple[int, QueryError]]) -> Sequence[int]:
    """Positions of ``typed`` satisfying every condition: each condition
    a pass over its column, only over what the ones before it kept.  A
    NULL — no such attribute in the shape, or a cell that did not coerce
    — satisfies nothing."""
    order = plan.member_order()
    classes = [plan.clusters[index][0] for index in order]
    keep: Sequence[int] = range(len(rows))
    for condition in conditions:
        picked = condition.pick(classes, is_subclass)
        if picked is None:
            return ()
        _specific, _ids, names, _coercers = plan.clusters[order[picked]]
        slots = [cells for name, cells in zip(names, typed[order[picked]])
                 if name == condition.path.attribute]
        if not slots:
            return ()
        # two ids on one attribute name: the last that coerced is the value
        column = slots[0] if len(slots) == 1 else [
            next((cell for cell in reversed(cells) if cell is not _FAILED),
                 _FAILED) for cells in zip(*slots)]
        survivors = []
        for position in keep:
            if column[position] is not _FAILED:
                try:
                    if condition.holds(column[position]):
                        survivors.append(position)
                except QueryError as exc:
                    # left out; raised once generation is through
                    incomparable.append((rows[position], exc))
        keep = survivors
    return keep

