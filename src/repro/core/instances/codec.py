"""The JSON form of assembled entities and of an error entry.

The Instance Generator owns the instances and "any error that has
occurred" (paper section 2.6); this module is the one place that writes
either down as JSON and reads it back.  An entity has one form, which
the wire (``repro.server.codec``) and the store manifest
(``repro.core.store.snapshot``) both carry: each record shape is stated
once, in a ``shapes`` array of one template per distinct shape, each
individual (primary first) as ``[class, [attribute, ...], {property:
[index, ...]}]``; an ``entities`` array holds one row per entity,
``[shape index, source_id, record_index, [coercion error, ...],
[identifier, value, ...], ...]`` with one cell list per individual, its
values in the order of the template's attributes.

A link is an index into the entity's own individuals (a link to
anything else is not encoded).  Values are JSON scalars or a list of
them, untouched; ``datetime.date`` / ``datetime.datetime`` have no JSON
spelling, so :func:`json_default` — handed to ``json.dumps(default=)``,
which calls it only for what JSON refuses — writes ``{"$date":
"2006-07-01"}`` / ``{"$dateTime": ...}`` and the decoder reads the tag
back to the same type.  No legal value is a JSON object, so a tag is
never ambiguous.  The decoder is strict: anything else raises
:class:`~repro.errors.CodecError` (docs/server.md, "Result payload").
"""

from __future__ import annotations

import json
import re
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
#: a surrogate code point: in a decoded string, always a lone one
_SURROGATE = re.compile("[\ud800-\udfff]")
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


def utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate has no UTF-8 form, so a string
    holding one raises :class:`CodecError`."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise CodecError("a string holds a lone surrogate, which has no "
                         "UTF-8 form") from None


def has_lone_surrogate(text: str, value) -> bool:
    """Whether ``value``, decoded from the JSON ``text``, holds a string
    no encoder could write back.  Only a ``\\ud800``-style escape makes
    a lone surrogate (an escaped pair decodes to one character), so text
    without one is not walked; the walk keeps its own stack, as deep as
    the decoder let the value nest."""
    if "\\ud" not in text and "\\uD" not in text:
        return False
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is dict:
            pending += item.keys()
            pending += item.values()
        elif type(item) is list:
            pending += item
        elif type(item) is str and _SURROGATE.search(item):
            return True
    return False


def _layout(entity: AssembledEntity) -> tuple[tuple, list]:
    """An entity's shape key — per individual its class, attribute names
    and links as indices — and its row past the shape index."""
    individuals = entity.all_individuals()
    row = [entity.source_id, entity.record_index, list(entity.coercion_errors)]
    key = []
    index_of = None
    for ind in individuals:
        values = ind.values
        row.append([ind.identifier, *values.values()])
        links = ()
        if ind.links:
            if index_of is None:
                index_of = {id(other): n for n, other in enumerate(individuals)}
            links = tuple([(name, tuple([index_of[id(target)]
                                         for target in targets
                                         if id(target) in index_of]))
                           for name, targets in ind.links.items()])
        key.append((ind.class_name, tuple(values), links))
    return tuple(key), row


def _template(key: tuple) -> list:
    """The ``shapes`` entry of a shape key."""
    return [[class_name, list(attributes),
             {name: list(targets) for name, targets in links}]
            for class_name, attributes, links in key]


def entities_to_wire(entities) -> tuple[list, list]:
    """The ``shapes`` and ``entities`` arrays of a RESULT body or of a
    store manifest's slice: one template per distinct shape, numbered in
    order of first use, and one row per entity."""
    return _numbered(map(_layout, entities))


def blocks_to_wire(blocks) -> tuple[list, list]:
    """``entities_to_wire`` of the entities an
    :class:`~repro.core.instances.assembly.EntityBlocks` would build,
    written from its typed columns: each plan's shape key is worked out
    once per answer, and a clean block's rows come from its cells
    (``RecordAssembler.cells``).  A block with a failed cell or two ids
    on one attribute name is built (fresh objects, dropped after) and
    laid out entity by entity."""
    assembler = blocks.assembler
    keys: dict[int, tuple | None] = {}
    keyed: list[tuple[tuple, list]] = []
    for source in blocks.sources:
        start = len(keyed)
        for block in source:
            plan = block.plan
            key = keys.get(id(plan), _MISSING)
            if key is _MISSING:
                key = keys[id(plan)] = _plan_key(plan)
            if key is None or block.failures:
                keyed += map(_layout, assembler.build(block))
            else:
                keyed += [(key, [block.source_id, record, [], *individuals])
                          for record, individuals
                          in zip(block.rows, assembler.cells(block))]
        if len(source) > 1:  # by record index
            keyed[start:] = sorted(keyed[start:], key=lambda pair: pair[1][1])
    return _numbered(keyed)


def _numbered(keyed) -> tuple[list, list]:
    """The ``shapes`` and ``entities`` arrays of (shape key, row past the
    shape index) pairs: a template per distinct key, numbered in order
    of first use.  Rows of one block share their key object, which is
    looked up once per run of them."""
    numbers: dict[tuple, int] = {}
    shapes, rows = [], []
    last = number = None
    for key, row in keyed:
        if key is not last:
            last, number = key, numbers.get(key)
            if number is None:
                number = numbers[key] = len(shapes)
                shapes.append(_template(key))
        row.insert(0, number)
        rows.append(row)
    return shapes, rows


def _plan_key(plan) -> tuple | None:
    """The shape key ``_layout`` finds on every entity of a plan built
    without a failed cell; None when two of a cluster's ids share an
    attribute name (their entities' values depend on the cells)."""
    order = plan.member_order()
    index = {cluster: position for position, cluster in enumerate(order)}
    links: dict[int, dict[str, list[int]]] = {}
    for origin, name, target in plan.links:
        links.setdefault(origin, {}).setdefault(name, []).append(index[target])
    key = []
    for cluster in order:
        specific, _ids, names, _coercers = plan.clusters[cluster]
        if len(set(names)) != len(names):
            return None
        key.append((specific, names, tuple([
            (name, tuple(targets))
            for name, targets in links.get(cluster, {}).items()])))
    return tuple(key)


def wire_texts(entity: AssembledEntity, templates: dict) -> tuple[str, str]:
    """The entity's template as JSON text, and its row as JSON text past
    the opening bracket and the shape index (which is per answer).  Kept
    on a frozen entity (docs/store.md, "What is shared"; two threads
    racing to write it keep equal texts); written afresh on any other.
    ``templates`` (shape key -> text), shared across one answer, writes
    each shape once however many of its entities need writing."""
    texts = entity._wire
    if texts is None:
        key, row = _layout(entity)
        shape = templates.get(key)
        if shape is None:
            shape = templates[key] = compact_json(_template(key))
        texts = shape, compact_json(row)[1:]
        if entity._frozen:
            entity._wire = texts
    return texts


def entities_from_wire(shapes: list, rows: list) -> list[AssembledEntity]:
    """The entities :func:`entities_to_wire` wrote, from parsed JSON:
    each template is checked once, each row against its template."""
    try:
        layouts = [_read_template(template) for template in shapes]
        return [_entity_from_row(row, layouts) for row in rows]
    except _SHAPE_ERRORS as exc:
        raise CodecError(f"malformed entity row: {exc!r}") from exc


def _read_template(template) -> tuple[list, list]:
    """A checked template as (per individual: class, attribute names, cell
    width; links as (individual, property, target indices))."""
    if type(template) is not list or not template:
        raise CodecError(f"not a shape template: {template!r}")
    count = len(template)
    members, links = [], []
    for index, member in enumerate(template):
        if type(member) is not list or len(member) != 3:
            raise CodecError(f"not an individual template: {member!r}")
        class_name, attributes, properties = member
        if type(class_name) is not str or type(attributes) is not list \
                or type(properties) is not dict \
                or not all(type(name) is str for name in attributes) \
                or len(set(attributes)) != len(attributes):
            raise CodecError(f"not an individual template: {member!r}")
        for name, targets in properties.items():
            if type(targets) is not list or not all(
                    type(target) is int and 0 <= target < count
                    for target in targets):
                raise CodecError(f"link {name!r} points outside its "
                                 f"{count}-individual shape: {targets!r}")
            links.append((index, name, targets))
        members.append((class_name, attributes, len(attributes) + 1))
    return members, links


def _entity_from_row(row, layouts: list) -> AssembledEntity:
    if type(row) is not list or not row:
        raise CodecError(f"not an entity row: {row!r}")
    number = row[0]
    if type(number) is not int or not 0 <= number < len(layouts):
        raise CodecError(f"shape index {number!r} of {len(layouts)} shapes")
    members, links = layouts[number]
    if len(row) != 4 + len(members):
        raise CodecError(f"a row of shape {number} holds {len(row)} cells, "
                         f"not {4 + len(members)}")
    source_id, record_index, coercion_errors = row[1], row[2], row[3]
    if type(source_id) is not str or type(record_index) is not int \
            or type(coercion_errors) is not list or (coercion_errors and not all(
                type(error) is str for error in coercion_errors)):
        raise CodecError("entity header fields have the wrong types")
    individuals = []
    position = 4
    for class_name, attributes, width in members:
        cell = row[position]
        position += 1
        if type(cell) is not list or len(cell) != width \
                or type(cell[0]) is not str:
            raise CodecError(f"not a {width}-cell individual: {cell!r}")
        values = dict(zip(attributes, cell[1:]))
        if not _CONTAINERS.isdisjoint(map(type, cell)):
            values = {name: _value_from_json(value)
                      for name, value in values.items()}
        individuals.append(Individual(cell[0], class_name, values))
    for index, name, targets in links:
        individuals[index].links[name] = [individuals[target]
                                          for target in targets]
    return AssembledEntity(individuals[0], individuals[1:], source_id,
                           record_index, list(coercion_errors))


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
