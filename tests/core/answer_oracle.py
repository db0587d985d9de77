"""Frozen reference for the answer step — generate, *then* filter.

This is what ``QueryHandler._answer_live`` did before the WHERE
conditions moved into the instance generator: build, link and validate
every record of every source (``generation_oracle.oracle_generate``, the
interpretive generator, itself frozen), apply the merge key, and only
then walk the entities and throw away the ones a condition rejects.
Slow on purpose and never edited: ``test_answer_differential.py``
compares the live answer step against it — entities, their order,
identifiers, value types, links, the whole error report, and whether
and with which message ``QueryError`` is raised.

**One deliberate difference from the code it froze.**  The old filter
looked a condition's value up by bare attribute *name*
(``entity.value(name)``, primary first) and ignored the class the
planner had resolved, so with ``item.name`` and ``maker.name`` both
declared, ``WHERE maker.name = "Acme"`` read the *item's* name.  That
was a wrong answer, fixed in the same change; the oracle carries the
fix (:func:`oracle_value`): the condition reads the first individual,
primary first, whose class is the path's class or a subclass of it.

It depends only on the ontology *model* and on ``like_to_regex`` — not
on ``ResolvedCondition.holds`` / ``pick``, ``Reasoner`` or the
generator's mask.
"""

from __future__ import annotations

from repro.core.extractor.manager import ExtractionOutcome
from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.errors import ErrorReport
from repro.errors import QueryError
from repro.like import like_to_regex
from repro.ontology.model import Ontology
from repro.ontology.schema import OntologySchema

from .generation_oracle import oracle_generate


def oracle_value(ontology: Ontology, entity: AssembledEntity, condition):
    """The value a condition reads on an entity, or None (NULL)."""
    owner = condition.path.leaf_class
    for individual in entity.all_individuals():
        if (individual.class_name == owner
                or owner in ontology.ancestors(individual.class_name)):
            return individual.values.get(condition.path.attribute)
    return None


def oracle_check(value, condition) -> bool:
    """``QueryHandler._check`` as it was."""
    operator = condition.operator
    expected = condition.value
    if operator == "CONTAINS":
        return str(expected).lower() in str(value).lower()
    if operator == "LIKE":
        return like_to_regex(str(expected)).match(str(value)) is not None
    try:
        if operator == "=":
            return value == expected
        if operator == "!=":
            return value != expected
        if operator == "<":
            return value < expected
        if operator == ">":
            return value > expected
        if operator == "<=":
            return value <= expected
        return value >= expected
    except TypeError as exc:
        raise QueryError(
            f"cannot compare extracted value {value!r} with constraint "
            f"{expected!r}") from exc


def oracle_matches(ontology: Ontology, entity: AssembledEntity,
                   conditions) -> bool:
    """``QueryHandler._matches`` as it was, reading through
    :func:`oracle_value`."""
    for condition in conditions:
        value = oracle_value(ontology, entity, condition)
        if value is None:
            return False
        if not oracle_check(value, condition):
            return False
    return True


def oracle_answer(schema: OntologySchema, outcome: ExtractionOutcome,
                  plan, *, validate: bool = True,
                  merge_key: list[str] | None = None
                  ) -> tuple[list[AssembledEntity], ErrorReport]:
    """Generate everything, merge, filter: (matched entities, errors).
    Raises what the old answer step raised, when it raised it — an
    escape from generation first, else the filter's ``QueryError`` at
    the first entity that has one."""
    generation = oracle_generate(schema, outcome, plan.class_name,
                                 validate=validate, merge_key=merge_key)
    matched = [entity for entity in generation.entities
               if oracle_matches(schema.ontology, entity, plan.conditions)]
    return matched, generation.errors
