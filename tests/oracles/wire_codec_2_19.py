"""The per-entity wire codec of release 2.19, frozen when protocol
revision 2 made the RESULT body shape-keyed (one template per record
shape, one value row per entity).

Up to 2.19 every entity crossed the wire as its own object — source,
record index, coercion errors and each individual's identifier, class,
values and links — written by ``result_to_wire`` and read back by
``result_from_wire``.  This module keeps those two functions and the
entity and error-entry codec they called, as they were, so that
``tests/oracles/test_wire_differential.py`` can hold the revision-2
codec to the answers the revision-1 codec decoded.  The store manifest
still uses the per-entity object form, from ``repro.core.instances.codec``;
this copy is for the comparison only.  No line has been edited since it
was frozen, apart from this header and the imports.
"""

from __future__ import annotations

from datetime import date, datetime

from repro.core.instances.assembly import AssembledEntity
from repro.core.instances.errors import ErrorEntry
from repro.errors import CodecError
from repro.ontology.model import Individual
from repro.server.codec import RemoteQueryResult

_DATE_TAG = "$date"
_DATETIME_TAG = "$dateTime"
#: the only JSON value types the decoder has to look inside
_CONTAINERS = frozenset((dict, list))
_MISSING = object()
#: what Python raises when well-formed JSON is not the expected shape
_SHAPE_ERRORS = (KeyError, TypeError, IndexError, ValueError, AttributeError)


def json_field(data: dict, name: str, *types: type):
    """``data[name]`` if ``data`` is an object holding one of the JSON
    ``types`` there (a bool is not an int), else :class:`CodecError`."""
    value = data.get(name, _MISSING) if type(data) is dict else _MISSING
    if type(value) not in types:
        raise CodecError(f"field {name!r} is missing or not {[t.__name__ for t in types]}")
    return value


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


def _envelope(result) -> tuple[dict, dict]:
    """A RESULT payload's fields before and after its ``entities``."""
    return ({"query": str(result.query), "query_class": result.plan.class_name},
            {"errors": [error_to_json(entry) for entry in result.errors.entries],
             "degraded": result.degraded, "degraded_sources": list(result.degraded_sources),
             "store_hit": result.store_hit, "store_stale": result.store_stale,
             "elapsed_seconds": result.elapsed_seconds})


def result_to_wire(result) -> dict:
    """The RESULT payload of one in-process ``QueryResult``."""
    head, tail = _envelope(result)
    return {**head, "entities": list(map(entity_to_json, result.entities)), **tail}


def result_from_wire(wire: dict) -> RemoteQueryResult:
    """A :class:`RemoteQueryResult` from one RESULT frame payload; a field
    missing or not of its JSON type raises :class:`CodecError`."""
    sources = json_field(wire, "degraded_sources", list)
    if not all(type(source) is str for source in sources):
        raise CodecError("field 'degraded_sources' holds a non-string")
    return RemoteQueryResult(
        json_field(wire, "query", str), json_field(wire, "query_class", str),
        [entity_from_json(entity) for entity in json_field(wire, "entities", list)],
        [error_from_json(entry) for entry in json_field(wire, "errors", list)],
        json_field(wire, "degraded", bool), sources,
        json_field(wire, "store_hit", bool),
        json_field(wire, "store_stale", bool),
        json_field(wire, "elapsed_seconds", float))
