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
from dataclasses import dataclass, field

from ...errors import InstanceGenerationError, ValidationError
from ...ids import AttributePath
from ...ontology.model import Individual
from ...ontology.reasoner import Coercer, Reasoner
from ...ontology.schema import OntologySchema


@dataclass
class AssembledEntity:
    """A primary individual plus the linked satellites built from one record."""

    primary: Individual
    satellites: list[Individual] = field(default_factory=list)
    source_id: str = ""
    record_index: int = 0
    coercion_errors: list[str] = field(default_factory=list)

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

    def clone(self) -> "AssembledEntity":
        """An independent deep copy.

        The merge step and condition filtering mutate entities in place
        (value back-fill, satellite adoption), so anything stored for
        reuse — the semantic store — must hand out copies.  Links are
        remapped so a clone's individuals reference each other, never
        the originals."""
        copies: dict[int, Individual] = {}
        for individual in self.all_individuals():
            copies[id(individual)] = Individual(
                individual.identifier, individual.class_name,
                {name: (list(value) if isinstance(value, list) else value)
                 for name, value in individual.values.items()})
        for individual in self.all_individuals():
            copy = copies[id(individual)]
            for name, targets in individual.links.items():
                copy.links[name] = [
                    copies.get(id(target), target) for target in targets]
        return AssembledEntity(
            copies[id(self.primary)],
            [copies[id(satellite)] for satellite in self.satellites],
            self.source_id, self.record_index,
            list(self.coercion_errors))


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
    link_error: str | None  # the InstanceGenerationError to raise instead


class RecordAssembler:
    """Builds :class:`AssembledEntity` objects for one query class.

    What a record becomes is fixed by the schema and by *which* attributes
    the record carries, not by their values, so the schema is consulted
    once per **record shape** — the ordered tuple of attribute ids whose
    value is not ``None`` — and compiled into a :class:`_ShapePlan`;
    ``assemble`` is then a plan lookup plus one coercion loop.  Plans are
    compiled lazily, on the first record of a shape, so an error only
    such a record can raise is raised exactly when one exists.  Plans,
    resolved attribute ids and the reasoner's tables live as long as the
    assembler (one ``generate`` call): nothing to invalidate when the
    schema changes."""

    def __init__(self, schema: OntologySchema, query_class: str) -> None:
        self.schema = schema
        self.query_class = query_class
        self.reasoner = Reasoner(schema.ontology)
        #: shape -> plan, or None when the shape has no primary cluster
        self.plans: dict[tuple[str, ...], _ShapePlan | None] = {}
        self._safe_sources: dict[str, str] = {}
        #: attribute id -> (owning class, (attribute id, attribute name))
        self._resolved: dict[str, tuple[str, tuple[str, str]]] = {}

    def assemble(self, record: dict[str, str | None], *, source_id: str,
                 record_index: int) -> AssembledEntity | None:
        """Assemble one aligned record; returns None when the record holds
        no attribute belonging to the query class's subtree."""
        shape = tuple([attribute_id for attribute_id, raw in record.items()
                       if raw is not None])
        try:
            plan = self.plans[shape]
        except KeyError:
            plan = self.plans[shape] = self._compile(shape)
        if plan is None:
            return None
        safe_source = self._safe_sources.get(source_id)
        if safe_source is None:
            safe_source = self._safe_sources[source_id] = re.sub(
                r"[^A-Za-z0-9_]", "_", source_id)
        suffix = f"_{safe_source}_{record_index}"

        individuals: list[Individual] = []
        errors: list[str] = []
        for specific, ids, names, coercers in plan.clusters:
            values: dict[str, object] = {}
            for attribute_id, attribute, coerce in zip(ids, names, coercers):
                try:
                    values[attribute] = coerce(record[attribute_id], attribute)
                except ValidationError as exc:
                    errors.append(str(exc))
            individuals.append(Individual(specific + suffix, specific, values))
        if plan.link_error is not None:
            raise InstanceGenerationError(plan.link_error)
        for origin, name, target in plan.links:
            individuals[origin].link(name, individuals[target])
        primary = individuals.pop(plan.primary)
        return AssembledEntity(primary, individuals, source_id, record_index,
                               errors)

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
        between = self.schema.object_properties_between
        primary_class = chains[primary][-1]
        links: list[tuple[int, str, int]] = []
        link_error = None
        for index, (satellite_class, *_) in enumerate(clusters):
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
            link_error = (
                f"no object property connects {primary_class!r} "
                f"and {satellite_class!r}; cannot assemble record")
            break
        return _ShapePlan(clusters, primary, links, link_error)

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
