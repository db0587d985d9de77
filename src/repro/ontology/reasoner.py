"""Lightweight structural reasoner.

The middleware does not need a DL reasoner — only the structural inferences
the paper's data flow relies on:

* transitive subclass closure (``watch`` is-a ``product`` is-a ``thing``);
* attribute inheritance (a ``watch`` individual may carry ``brand``);
* membership entailment for individuals (a ``watch`` instance satisfies a
  query over ``product``);
* datatype coercion/checking for attribute values.
"""

from __future__ import annotations

from datetime import date, datetime
from typing import Callable

from ..errors import OntologyError, ValidationError
from .model import DatatypeProperty, ObjectProperty, Ontology

#: ``coercer(raw, attribute name) -> typed value``; raises
#: :class:`ValidationError` naming the attribute when ``raw`` does not fit.
Coercer = Callable[[object, str], object]


def _to_boolean(raw: object, attribute: str) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValidationError(f"value {raw!r} is not a boolean for {attribute!r}")


def _to_date(raw: object, attribute: str) -> date:
    if isinstance(raw, date) and not isinstance(raw, datetime):
        return raw
    try:
        return date.fromisoformat(str(raw).strip())
    except ValueError as exc:
        raise ValidationError(
            f"value {raw!r} is not an ISO date for {attribute!r}") from exc


def _to_datetime(raw: object, attribute: str) -> datetime:
    if isinstance(raw, datetime):
        return raw
    try:
        return datetime.fromisoformat(str(raw).strip())
    except ValueError as exc:
        raise ValidationError(
            f"value {raw!r} is not an ISO dateTime for {attribute!r}") from exc


def _plain(convert: type, range_name: str) -> Coercer:
    """Coercer for the ranges a Python constructor interprets."""
    def coerce(raw: object, attribute: str):
        try:
            if convert is not str and isinstance(raw, str):
                return convert(raw.strip())
            return convert(raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"value {raw!r} is not a valid {range_name} for "
                f"{attribute!r}") from exc
    coerce.from_text = convert
    return coerce


_RANGE_COERCERS: dict[str, Coercer] = {
    "string": _plain(str, "string"),
    "anyURI": _plain(str, "anyURI"),
    "integer": _plain(int, "integer"),
    "decimal": _plain(float, "decimal"),
    "double": _plain(float, "double"),
    "float": _plain(float, "float"),
    "boolean": _to_boolean,
    "date": _to_date,
    "dateTime": _to_datetime,
}


def range_coercer(range_name: str) -> Coercer:
    """The one coercion implementation of an XSD range, shared by the
    instance generator, the validator and the query planner.  An
    unsupported range fails when a value is coerced, not at lookup."""
    coercer = _RANGE_COERCERS.get(range_name)
    if coercer is None:
        def coercer(raw: object, attribute: str):
            raise OntologyError(f"unsupported range {range_name!r}")
    return coercer


#: what a temporal coercer does to text once it is stripped
_to_date.from_text = date.fromisoformat
_to_datetime.from_text = datetime.fromisoformat


def coerce_column(coerce: Coercer, raw: list, attribute: str) -> list:
    """``[coerce(value, attribute) for value in raw]``: one attribute's
    column through its one coercer, raising at the first value that does
    not fit.  A column of ``str`` skips the per-value call where the
    coercer is a constructor applied to the stripped text
    (``from_text``); ``str(text)`` is the text itself."""
    from_text = getattr(coerce, "from_text", None)
    if from_text is not None and set(map(type, raw)) <= {str}:
        if from_text is str:
            return raw
        try:
            return list(map(from_text, map(str.strip, raw)))
        except ValueError:
            pass  # the per-value pass words the error
    return [coerce(value, attribute) for value in raw]


class Reasoner:
    """Structural inference over a fixed ontology.

    "Fixed" is what makes it cheap: the ancestor sets and the per-class
    attribute / object-property tables are derived from the schema on
    first use and kept for the reasoner's lifetime, so a reasoner must
    not outlive a schema change — callers build one per call (one per
    ``InstanceGenerator.generate``, one per ``validate_ontology``)."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._attribute_tables: dict[
            str, dict[str, tuple[DatatypeProperty, Coercer]]] = {}
        self._object_property_tables: dict[
            str, dict[str, ObjectProperty]] = {}

    def ancestors(self, class_name: str) -> frozenset[str]:
        """Cached superclass set of a class."""
        cached = self._ancestor_cache.get(class_name)
        if cached is None:
            cached = frozenset(self.ontology.ancestors(class_name))
            self._ancestor_cache[class_name] = cached
        return cached

    def is_subclass(self, child: str, parent: str) -> bool:
        """Reflexive-transitive subclass test."""
        if child == parent:
            self.ontology.require_class(child)
            return True
        return parent in self.ancestors(child)

    # ------------------------------------------------------------------
    # Per-class tables and datatype handling
    # ------------------------------------------------------------------

    def attributes(self, class_name: str) -> dict[
            str, tuple[DatatypeProperty, Coercer]]:
        """Cached ``attribute name -> (property, range coercer)`` for every
        attribute the class declares or inherits (most specific wins)."""
        table = self._attribute_tables.get(class_name)
        if table is None:
            table = {prop.name: (prop, range_coercer(prop.range))
                     for prop in self.ontology.all_attributes(class_name)}
            self._attribute_tables[class_name] = table
        return table

    def object_properties(self, class_name: str) -> dict[str, ObjectProperty]:
        """Cached ``object property name -> property`` for the class and
        its lineage."""
        table = self._object_property_tables.get(class_name)
        if table is None:
            table = {prop.name: prop for prop in
                     self.ontology.all_object_properties(class_name)}
            self._object_property_tables[class_name] = table
        return table

    def coercer(self, class_name: str, attribute: str) -> Coercer:
        """The range coercer of ``attribute`` as seen from ``class_name``."""
        entry = self.attributes(class_name).get(attribute)
        if entry is None:
            raise OntologyError(
                f"class {class_name!r} has no attribute {attribute!r}")
        return entry[1]

    def coerce(self, class_name: str, attribute: str, raw: object):
        """Coerce a raw extracted value to the attribute's declared range.

        Extractors return strings (chunks of raw data, section 2.4); the
        instance generator uses this to produce typed values.  Raises
        :class:`ValidationError` when the value cannot be interpreted.
        """
        return self.coercer(class_name, attribute)(raw, attribute)
