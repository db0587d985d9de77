"""Query planning: from parsed S2SQL to a required-attribute list.

This is extraction step 1 ("know what data to extract"): the planner
resolves the query class against the ontology, computes the output class
closure (paper: querying ``product`` returns Product, watch and Provider),
expands the closure into the attribute paths the extractor must fill, and
resolves each WHERE condition to a canonical attribute path with a typed
constraint value.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from ...errors import QueryError, ValidationError
from ...ids import AttributePath
from ...like import like_to_regex
from ...ontology.model import DatatypeProperty
from ...ontology.reasoner import range_coercer
from ...ontology.schema import OntologySchema
from .ast import Condition, S2sqlQuery

_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class ResolvedCondition:
    """A WHERE condition bound to its canonical attribute path."""

    path: AttributePath
    property: DatatypeProperty
    operator: str
    value: object

    @cached_property
    def like(self) -> re.Pattern:
        """The compiled ``LIKE`` pattern, built once per condition."""
        return like_to_regex(str(self.value))

    def pick(self, class_names: Sequence[str],
             is_subclass: Callable[[str, str], bool]) -> int | None:
        """Which individual of a record the condition reads: the first of
        ``class_names`` (an entity's classes, primary first) that is the
        attribute's declaring class or a subclass of it.  Two classes may
        declare one attribute name (``product.name`` / ``provider.name``);
        the resolved path says which one the query meant."""
        owner = self.path.leaf_class
        for index, class_name in enumerate(class_names):
            if class_name == owner or is_subclass(class_name, owner):
                return index
        return None

    def holds(self, value: object) -> bool:
        """Whether a typed, non-NULL extracted ``value`` satisfies the
        condition.  The one evaluator: the generator's row mask and the
        handler's entity filter both end here."""
        if self.operator == "CONTAINS":
            return str(self.value).lower() in str(value).lower()
        if self.operator == "LIKE":
            return self.like.match(str(value)) is not None
        try:
            return _COMPARISONS[self.operator](value, self.value)
        except TypeError as exc:
            raise QueryError(
                f"cannot compare extracted value {value!r} with constraint "
                f"{self.value!r}") from exc


@dataclass
class QueryPlan:
    """What the extractor and assembler need to answer one query."""

    query: S2sqlQuery
    class_name: str
    output_classes: list[str]
    required_attributes: list[AttributePath] = field(default_factory=list)
    conditions: list[ResolvedCondition] = field(default_factory=list)


class QueryPlanner:
    """Builds :class:`QueryPlan` objects against one ontology schema."""

    def __init__(self, schema: OntologySchema) -> None:
        self.schema = schema

    def plan(self, query: S2sqlQuery) -> QueryPlan:
        """Build the extraction plan for a parsed query."""
        try:
            class_name = self.schema.resolve_query_class(query.class_name)
        except Exception as exc:
            raise QueryError(str(exc)) from exc
        output_classes = self.schema.class_closure(class_name)

        required: list[AttributePath] = []
        seen: set[str] = set()
        for output_class in output_classes:
            for path in self.schema.paths_for_class(output_class):
                if str(path) not in seen:
                    seen.add(str(path))
                    required.append(path)

        conditions = [self._resolve_condition(class_name, condition)
                      for condition in query.conditions]
        for condition in conditions:
            if str(condition.path) not in seen:
                seen.add(str(condition.path))
                required.append(condition.path)
        return QueryPlan(query, class_name, output_classes, required,
                         conditions)

    def _resolve_condition(self, class_name: str,
                           condition: Condition) -> ResolvedCondition:
        attribute = condition.attribute
        if "." in attribute:
            path = AttributePath.parse(attribute)
            if not self.schema.has_path(path):
                raise QueryError(
                    f"condition attribute {attribute!r} is not in the "
                    "ontology schema")
            _owner, prop = self.schema.resolve(path)
        else:
            prop = None
            path = None
            # Search the query class first, then the rest of the closure —
            # the paper's example constrains `case`, an attribute of the
            # `watch` subclass, in a query over `product`.
            for candidate in self.schema.class_closure(class_name):
                found = self.schema.ontology.find_attribute(candidate,
                                                            attribute)
                if found is not None:
                    prop = found
                    path = self.schema.path_for(candidate, attribute)
                    break
            if prop is None or path is None:
                raise QueryError(
                    f"condition attribute {attribute!r} does not exist on "
                    f"class {class_name!r} or its related classes")
        value = self._typed_value(prop, condition)
        return ResolvedCondition(path, prop, condition.operator, value)

    @staticmethod
    def _typed_value(prop: DatatypeProperty, condition: Condition) -> object:
        """Coerce the constraint to the attribute's range eagerly so typing
        errors surface at plan time, not per record — with the coercer the
        instance generator types the records with, so both sides of the
        comparison agree on what ``"yes"`` means."""
        if condition.operator in ("LIKE", "CONTAINS"):
            return str(condition.value)
        try:
            return range_coercer(prop.range)(condition.value, prop.name)
        except ValidationError as exc:
            raise QueryError(
                f"constraint {condition.value!r} is not a valid "
                f"{prop.range} for attribute {prop.name!r}") from exc
