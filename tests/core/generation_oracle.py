"""Frozen reference for instance generation — the differential oracle.

This is the interpretive Instance Generator exactly as it stood before
generation was compiled per record shape: every record re-parses its
attribute ids, re-resolves them against the schema, re-clusters the
classes, re-derives the links and looks every value's range up through
``find_attribute`` -> ``lineage``; every individual is validated against
tables rebuilt for that individual.  Slow on purpose and never edited:
``test_generation_differential.py`` and ``bench_e22_generation.py``
compare ``InstanceGenerator.generate`` against it field by field
(:func:`snapshot` flattens either side's result for that comparison).

It depends only on the ontology *model* (``Ontology`` / ``OntologySchema``
lookups) and on ``InstanceGenerator._merge``, none of which the compiled
path changed — not on ``Reasoner``, ``RecordAssembler``,
``validate_individual`` or ``SourceRecordSet.align``.
"""

from __future__ import annotations

import re
from datetime import date, datetime

from repro.core.extractor.manager import ExtractionOutcome
from repro.core.extractor.records import SourceRecordSet
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.generator import GenerationResult, InstanceGenerator
from repro.errors import (InstanceGenerationError, OntologyError,
                          ValidationError)
from repro.ids import AttributePath
from repro.ontology.model import Individual, Ontology
from repro.ontology.schema import OntologySchema

_COERCERS = {
    "string": str,
    "integer": int,
    "decimal": float,
    "double": float,
    "float": float,
    "anyURI": str,
}


def oracle_coerce(ontology: Ontology, class_name: str, attribute: str,
                  raw: object):
    """``Reasoner.coerce`` as it was: one schema walk per value."""
    prop = ontology.find_attribute(class_name, attribute)
    if prop is None:
        raise OntologyError(
            f"class {class_name!r} has no attribute {attribute!r}")
    range_name = prop.range
    if range_name == "boolean":
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ValidationError(
            f"value {raw!r} is not a boolean for {attribute!r}")
    if range_name == "date":
        if isinstance(raw, date) and not isinstance(raw, datetime):
            return raw
        try:
            return date.fromisoformat(str(raw).strip())
        except ValueError as exc:
            raise ValidationError(
                f"value {raw!r} is not an ISO date for {attribute!r}") from exc
    if range_name == "dateTime":
        if isinstance(raw, datetime):
            return raw
        try:
            return datetime.fromisoformat(str(raw).strip())
        except ValueError as exc:
            raise ValidationError(
                f"value {raw!r} is not an ISO dateTime for "
                f"{attribute!r}") from exc
    coercer = _COERCERS.get(range_name)
    if coercer is None:
        raise OntologyError(f"unsupported range {range_name!r}")
    try:
        if coercer is int and isinstance(raw, str):
            return int(raw.strip())
        if coercer is float and isinstance(raw, str):
            return float(raw.strip())
        return coercer(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"value {raw!r} is not a valid {range_name} for "
            f"{attribute!r}") from exc


def _is_subclass(ontology: Ontology, child: str, parent: str) -> bool:
    if child == parent:
        ontology.require_class(child)
        return True
    return parent in ontology.ancestors(child)


def _identifier(class_name: str, source_id: str, index: int) -> str:
    safe_source = re.sub(r"[^A-Za-z0-9_]", "_", source_id)
    return f"{class_name}_{safe_source}_{index}"


class OracleAssembler:
    """The interpretive ``RecordAssembler``: all schema work per record."""

    def __init__(self, schema: OntologySchema, query_class: str) -> None:
        self.schema = schema
        self.query_class = query_class

    def assemble(self, record: dict[str, str | None], *, source_id: str,
                 record_index: int) -> AssembledEntity | None:
        by_class: dict[str, dict[str, str]] = {}
        for attribute_id, raw in record.items():
            if raw is None:
                continue
            path = AttributePath.parse(attribute_id)
            owner, _prop = self.schema.resolve(path)
            by_class.setdefault(owner, {})[path.attribute] = raw

        clusters = self._cluster_classes(list(by_class))
        primary_cluster = self._primary_cluster(clusters)
        if primary_cluster is None:
            return None

        individuals: dict[str, Individual] = {}
        errors: list[str] = []
        for cluster in clusters:
            specific = cluster[-1]  # most specific class in the chain
            values: dict[str, object] = {}
            for class_name in cluster:
                for attribute, raw in by_class.get(class_name, {}).items():
                    try:
                        values[attribute] = oracle_coerce(
                            self.schema.ontology, specific, attribute, raw)
                    except ValidationError as exc:
                        errors.append(str(exc))
            individual = Individual(
                _identifier(specific, source_id, record_index), specific,
                values)
            individuals[specific] = individual

        primary = individuals[primary_cluster[-1]]
        satellites = [ind for cls, ind in individuals.items()
                      if ind is not primary]
        self._link(primary, satellites)
        return AssembledEntity(primary, satellites, source_id,
                               record_index, errors)

    def _cluster_classes(self, classes: list[str]) -> list[list[str]]:
        remaining = set(classes)
        clusters: list[list[str]] = []
        for class_name in sorted(
                remaining,
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

    def _primary_cluster(self, clusters: list[list[str]]) -> list[str] | None:
        for cluster in clusters:
            for class_name in cluster:
                if _is_subclass(self.schema.ontology, class_name,
                                self.query_class):
                    return cluster
        return None

    def _link(self, primary: Individual, satellites: list[Individual]) -> None:
        for satellite in satellites:
            properties = self.schema.object_properties_between(
                primary.class_name, satellite.class_name)
            if not properties:
                reverse = self.schema.object_properties_between(
                    satellite.class_name, primary.class_name)
                if reverse:
                    satellite.link(reverse[0].name, primary)
                    continue
                raise InstanceGenerationError(
                    f"no object property connects {primary.class_name!r} "
                    f"and {satellite.class_name!r}; cannot assemble record")
            primary.link(properties[0].name, satellite)


def oracle_validate_individual(ontology: Ontology,
                               individual: Individual) -> list[str]:
    """``validate_individual`` as it was: the ``declared`` and
    ``object_props`` tables rebuilt for every individual."""
    problems: list[str] = []
    if not ontology.has_class(individual.class_name):
        problems.append(
            f"individual {individual.identifier!r} has unknown class "
            f"{individual.class_name!r}")
        return problems

    declared = {a.name: a
                for a in ontology.all_attributes(individual.class_name)}
    for name, value in individual.values.items():
        prop = declared.get(name)
        if prop is None:
            problems.append(
                f"{individual.identifier}: undeclared attribute {name!r} "
                f"for class {individual.class_name!r}")
            continue
        candidates = value if isinstance(value, list) else [value]
        if prop.functional and isinstance(value, list) and len(value) > 1:
            problems.append(
                f"{individual.identifier}: functional attribute {name!r} "
                f"has {len(value)} values")
        for item in candidates:
            try:
                oracle_coerce(ontology, individual.class_name, name, item)
            except ValidationError as exc:
                problems.append(f"{individual.identifier}: {exc}")

    object_props = {p.name: p for p in
                    ontology.all_object_properties(individual.class_name)}
    for name, targets in individual.links.items():
        prop = object_props.get(name)
        if prop is None:
            problems.append(
                f"{individual.identifier}: undeclared object property "
                f"{name!r} for class {individual.class_name!r}")
            continue
        if prop.functional and len(targets) > 1:
            problems.append(
                f"{individual.identifier}: functional object property "
                f"{name!r} has {len(targets)} targets")
        for target in targets:
            if not ontology.has_class(target.class_name):
                problems.append(
                    f"{individual.identifier}: link {name!r} targets "
                    f"unknown class {target.class_name!r}")
            elif not _is_subclass(ontology, target.class_name, prop.range):
                problems.append(
                    f"{individual.identifier}: link {name!r} targets "
                    f"{target.class_name!r}, expected {prop.range!r}")
    return problems


def _align(record_set: SourceRecordSet) -> list[dict[str, str | None]]:
    count = record_set.record_count
    records: list[dict[str, str | None]] = []
    for index in range(count):
        record: dict[str, str | None] = {}
        for fragment in record_set.fragments:
            value = (fragment.values[index]
                     if index < len(fragment.values) else None)
            record[str(fragment.attribute)] = value
        records.append(record)
    return records


def oracle_generate(schema: OntologySchema, outcome: ExtractionOutcome,
                    query_class: str, *, validate: bool = True,
                    merge_key: list[str] | None = None) -> GenerationResult:
    """``InstanceGenerator.generate`` as it was."""
    result = GenerationResult()
    assembler = OracleAssembler(schema, query_class)

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
        records = _align(record_set)
        if len({len(fragment) for fragment in record_set.fragments}) > 1:
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
            if validate:
                for individual in entity.all_individuals():
                    for problem_text in oracle_validate_individual(
                            schema.ontology, individual):
                        result.errors.add("generation", problem_text,
                                          source_id=source_id)
            result.entities.append(entity)

    if merge_key:
        result.entities = InstanceGenerator._merge(
            result.entities, merge_key, result.errors)
    return result


def snapshot(result) -> object:
    """Every field the two sides must agree on, as plain comparable data."""
    entities = []
    for entity in result.entities:
        members = entity.all_individuals()
        position = {id(member): index for index, member in enumerate(members)}
        entities.append((
            entity.source_id, entity.record_index,
            tuple(entity.coercion_errors),
            tuple((member.identifier, member.class_name,
                   tuple((name, type(value), value)
                         for name, value in member.values.items()),
                   tuple((name, tuple(position.get(id(target),
                                                   target.identifier)
                                      for target in targets))
                         for name, targets in member.links.items()))
                  for member in members)))
    errors = tuple((entry.phase, entry.message, entry.source_id,
                    entry.attribute_id) for entry in result.errors.entries)
    return (tuple(entities), errors)
