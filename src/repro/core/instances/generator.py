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

from dataclasses import dataclass, field

from ...errors import InstanceGenerationError
from ...ontology.schema import OntologySchema
from ...ontology.validation import validate_individual
from ..extractor.manager import ExtractionOutcome
from .assembly import AssembledEntity, RecordAssembler
from .errors import ErrorReport


@dataclass
class GenerationResult:
    """Assembled entities + the error channel."""

    entities: list[AssembledEntity] = field(default_factory=list)
    errors: ErrorReport = field(default_factory=ErrorReport)
    #: distinct record shapes compiled; one per clean homogeneous source
    #: set, more exactly when a source is sparse or dirty
    shapes: int = 0

    def __len__(self) -> int:
        return len(self.entities)


class InstanceGenerator:
    """Builds ontology instances from raw extraction output."""

    def __init__(self, schema: OntologySchema, *,
                 validate: bool = True) -> None:
        self.schema = schema
        self.validate = validate

    def generate(self, outcome: ExtractionOutcome, query_class: str,
                 *, merge_key: list[str] | None = None) -> GenerationResult:
        """Turn an extraction outcome into assembled entities."""
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

        for source_id in sorted(outcome.record_sets):
            record_set = outcome.record_sets[source_id]
            records = record_set.align()
            if record_set.ragged:
                result.errors.add(
                    "extraction",
                    f"ragged record set: attribute columns have unequal "
                    f"lengths ({[len(f) for f in record_set.fragments]})",
                    source_id=source_id)
            for index, record in enumerate(records):
                try:
                    entity = assembler.assemble(record, source_id=source_id,
                                                record_index=index)
                except InstanceGenerationError as exc:
                    result.errors.add("generation", str(exc),
                                      source_id=source_id)
                    continue
                if entity is None:
                    result.errors.add(
                        "generation",
                        f"record {index} holds no attribute of class "
                        f"{query_class!r}", source_id=source_id)
                    continue
                for message in entity.coercion_errors:
                    result.errors.add("generation", message,
                                      source_id=source_id)
                if self.validate:
                    for individual in entity.all_individuals():
                        report = validate_individual(
                            self.schema.ontology, individual,
                            reasoner=assembler.reasoner)
                        for problem_text in report.problems:
                            result.errors.add("generation", problem_text,
                                              source_id=source_id)
                result.entities.append(entity)

        result.shapes = len(assembler.plans)
        if merge_key:
            result.entities = self._merge(result.entities, merge_key,
                                          result.errors)
        return result

    @staticmethod
    def _merge(entities: list[AssembledEntity], merge_key: list[str],
               errors: ErrorReport) -> list[AssembledEntity]:
        """Merge entities agreeing on every merge-key attribute.

        The first-seen entity wins conflicts; differing non-key values are
        reported (they usually reveal an unresolved semantic conflict)."""
        merged: dict[tuple, AssembledEntity] = {}
        order: list[tuple] = []
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
            for attribute, value in entity.primary.values.items():
                current = existing.primary.values.get(attribute)
                if current is None:
                    existing.primary.values[attribute] = value
                elif current != value:
                    errors.add(
                        "generation",
                        f"merge conflict on {attribute!r}: kept {current!r}, "
                        f"dropped {value!r} (from {entity.source_id})",
                        source_id=entity.source_id)
            for satellite in entity.satellites:
                known = {s.class_name for s in existing.satellites}
                if satellite.class_name not in known:
                    existing.satellites.append(satellite)
        return [merged[key] for key in order]
