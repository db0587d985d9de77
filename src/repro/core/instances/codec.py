"""The JSON form of an assembled entity and of an error entry.

The Instance Generator owns the instances and "any error that has
occurred" (paper section 2.6); this module is the one place that writes
either down as JSON and reads it back — the wire (``repro.server.codec``)
and the store manifest (``repro.core.store.snapshot``) carry this shape::

    {"source_id": str, "record_index": int, "coercion_errors": [str],
     "individuals": [{"identifier": str, "class": str, "values": {...},
                      "links": {property: [index, ...]}}, ...]}

Primary first; a link is an index into the entity's own ``individuals``
(a link to anything else is not encoded).  Values are JSON scalars or a
list of them, untouched; ``datetime.date`` / ``datetime.datetime`` have
no JSON spelling, so :func:`json_default` — handed to
``json.dumps(default=)``, which calls it only for what JSON refuses —
writes ``{"$date": "2006-07-01"}`` / ``{"$dateTime": ...}`` and the
decoder reads the tag back to the same type.  No legal value is a JSON
object, so a tag is never ambiguous.  The decoders are strict: anything
else raises :class:`~repro.errors.CodecError` (docs/server.md, "Result
payload").
"""

from __future__ import annotations

import json
from datetime import date, datetime

from ...errors import CodecError
from ...ontology.model import Individual
from .assembly import AssembledEntity
from .errors import ErrorEntry

_DATE_TAG = "$date"
_DATETIME_TAG = "$dateTime"
#: the only JSON value types the decoder has to look inside
_CONTAINERS = frozenset((dict, list))
_MISSING = object()
#: what Python raises when well-formed JSON is not the expected shape
_SHAPE_ERRORS = (KeyError, TypeError, IndexError, ValueError, AttributeError)


def json_default(value):
    """``json.dumps(default=)`` hook: the tagged form of a date value."""
    if isinstance(value, datetime):  # before date: it is a subclass
        return {_DATETIME_TAG: value.isoformat()}
    if isinstance(value, date):
        return {_DATE_TAG: value.isoformat()}
    raise CodecError(
        f"a value of type {type(value).__name__} has no JSON form")


def json_field(data: dict, name: str, *types: type):
    """``data[name]`` if ``data`` is an object holding one of the JSON
    ``types`` there (a bool is not an int), else :class:`CodecError`."""
    value = data.get(name, _MISSING) if type(data) is dict else _MISSING
    if type(value) not in types:
        raise CodecError(f"field {name!r} is missing or not {[t.__name__ for t in types]}")
    return value


def compact_json(value) -> str:
    """``value`` as JSON text: no spaces, non-ASCII kept, dates tagged."""
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False, default=json_default)


def entity_text(entity: AssembledEntity) -> str:
    """``compact_json(entity_to_json(entity))``, kept on a frozen entity
    (docs/store.md, "What is shared"; two threads racing to write it keep
    equal texts); written afresh on any other."""
    text = entity._text
    if text is None:
        text = compact_json(entity_to_json(entity))
        if entity._frozen:
            entity._text = text
    return text


def entities_text(entities) -> str:
    """The JSON array of :func:`entity_text` of each entity; in one pass,
    cheaper for fresh entities, when none is frozen (a live answer)."""
    if any(entity._frozen for entity in entities):
        return "[" + ",".join(map(entity_text, entities)) + "]"
    return compact_json([entity_to_json(entity) for entity in entities])


def entity_to_json(entity: AssembledEntity) -> dict:
    """One assembled entity: individuals by index, links as indices.

    JSON-safe once serialized with ``default=json_default``."""
    individuals = entity.all_individuals()
    index_of = {id(ind): n for n, ind in enumerate(individuals)}
    return {
        "source_id": entity.source_id,
        "record_index": entity.record_index,
        "coercion_errors": list(entity.coercion_errors),
        "individuals": [
            {"identifier": ind.identifier,
             "class": ind.class_name,
             "values": dict(ind.values),
             "links": {name: [index_of[id(target)]
                              for target in targets
                              if id(target) in index_of]
                       for name, targets in ind.links.items()}}
            for ind in individuals],
    }


def entity_from_json(data: dict) -> AssembledEntity:
    """The entity :func:`entity_to_json` wrote, from parsed JSON."""
    try:
        individuals = []
        for ind in data["individuals"]:
            identifier, class_name = ind["identifier"], ind["class"]
            values = ind["values"]
            if type(identifier) is not str or type(class_name) is not str:
                raise CodecError(f"not an individual: {ind!r}")
            if _CONTAINERS.isdisjoint(map(type, values.values())):
                values = dict(values)
            else:
                values = {name: _value_from_json(value)
                          for name, value in values.items()}
            individuals.append(Individual(identifier, class_name, values))
        count = len(individuals)
        for individual, ind in zip(individuals, data["individuals"]):
            for name, targets in ind["links"].items():
                linked = individual.links[name] = []
                for index in targets:
                    if type(index) is not int or not 0 <= index < count:
                        raise CodecError(
                            f"link {name!r} of {individual.identifier!r} "
                            f"points at individual {index!r} of {count}")
                    linked.append(individuals[index])
        # inline, not json_field: a client decodes every entity it is sent
        source_id, record_index = data["source_id"], data["record_index"]
        coercion_errors = data["coercion_errors"]
        if type(source_id) is not str or type(record_index) is not int \
                or type(coercion_errors) is not list or (coercion_errors and not all(
                    type(error) is str for error in coercion_errors)):
            raise CodecError("entity header fields have the wrong types")
        return AssembledEntity(individuals[0], individuals[1:], source_id,
                               record_index, list(coercion_errors))
    except _SHAPE_ERRORS as exc:
        raise CodecError(f"malformed entity: {exc!r}") from exc


def _value_from_json(value, *, in_list: bool = False):
    if type(value) is list and not in_list:
        return [_value_from_json(item, in_list=True) for item in value]
    if type(value) not in _CONTAINERS:
        return value
    if type(value) is dict and len(value) == 1:
        (tag, text), = value.items()
        if tag == _DATE_TAG:
            return date.fromisoformat(text)
        if tag == _DATETIME_TAG:
            return datetime.fromisoformat(text)
    raise CodecError(f"not an attribute value: {value!r}")


def error_to_json(entry: ErrorEntry) -> dict:
    """One error-report entry."""
    return {"phase": entry.phase, "message": entry.message,
            "source_id": entry.source_id,
            "attribute_id": entry.attribute_id}


def error_from_json(data: dict) -> ErrorEntry:
    """The entry :func:`error_to_json` wrote, from parsed JSON."""
    scope = (str, type(None))
    return ErrorEntry(json_field(data, "phase", str),
                      json_field(data, "message", str),
                      json_field(data, "source_id", *scope),
                      json_field(data, "attribute_id", *scope))
