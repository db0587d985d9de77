"""Wire encoding of query answers.

A :class:`~repro.core.query.executor.QueryResult` holds live objects
(the extraction outcome, the span tree); over the wire only the *answer*
travels: the assembled entities with their values and links, the error
report, and the degradation/provenance flags callers act on
(``degraded``, ``degraded_sources``, ``store_hit``, ``store_stale``).
The client rebuilds that as a :class:`RemoteQueryResult` over the same
``AssembledEntity`` / ``ErrorEntry`` classes the in-process result holds.

Entities and error entries are written and read by
:mod:`repro.core.instances.codec`: each record shape travels once as a
template in ``shapes``, each entity as one row of values in
``entities``; plain values are plain JSON, the two date ranges tagged
objects that ``encode_frame`` writes through that module's
``json_default``.  :func:`encode_result_frame` writes ``encode_frame``'s
very bytes: a live answer nobody read from the generator's typed
columns, without building its entities; a stored one by numbering its
shapes and splicing in each entity's kept texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.instances.codec import (blocks_to_wire, compact_json,
                                    entities_from_wire, entities_to_wire,
                                    error_from_json, error_to_json,
                                    json_field, utf8, wire_texts)
from ..core.instances.generator import unbuilt
from ..errors import CodecError
from .protocol import MAX_FRAME_BYTES, RESULT, RESULTS, pack_frame


def _envelope(result) -> tuple[dict, dict]:
    """A RESULT payload's fields before its ``shapes`` and after its
    ``entities``."""
    return ({"query": str(result.query), "query_class": result.plan.class_name},
            {"errors": [error_to_json(entry) for entry in result.errors.entries],
             "degraded": result.degraded, "degraded_sources": list(result.degraded_sources),
             "store_hit": result.store_hit, "store_stale": result.store_stale,
             "elapsed_seconds": result.elapsed_seconds})


def result_to_wire(result) -> dict:
    """The RESULT payload of one in-process ``QueryResult``."""
    head, tail = _envelope(result)
    shapes, rows = entities_to_wire(result.entities)
    return {**head, "shapes": shapes, "entities": rows, **tail}


def _result_text(result) -> str:
    """``compact_json(result_to_wire(result))``: from the generator's
    columns when the answer's entities were never built, in that one
    pass when no entity is frozen (a live answer someone read), else
    from the kept texts."""
    blocks = unbuilt(result)
    if blocks is not None:
        head, tail = _envelope(result)
        shapes, rows = blocks_to_wire(blocks)
        return compact_json({**head, "shapes": shapes, "entities": rows, **tail})
    if not any(entity._frozen for entity in result.entities):
        return compact_json(result_to_wire(result))
    numbers: dict[str, int] = {}
    templates: dict[tuple, str] = {}
    rows = []
    for entity in result.entities:
        shape, row = wire_texts(entity, templates)
        rows.append(f"[{numbers.setdefault(shape, len(numbers))},{row}")
    head, tail = map(compact_json, _envelope(result))
    return (f'{head[:-1]},"shapes":[{",".join(numbers)}],'
            f'"entities":[{",".join(rows)}],{tail[1:]}')


def encode_result_frame(request_id, answer, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """``encode_frame({"kind": RESULT, "id", "result": result_to_wire(
    answer)})``, byte for byte; a list of answers makes a RESULTS frame."""
    many = isinstance(answer, list)
    text = ",".join(map(_result_text, answer if many else [answer]))
    head = compact_json({"kind": RESULTS if many else RESULT, "id": request_id})
    body = f',"results":[{text}]}}' if many else f',"result":{text}}}'
    return pack_frame(utf8(head[:-1] + body), max_bytes=max_bytes)


def sparql_to_wire(result) -> dict:
    """SPARQL answers: ``bool`` for ASK, variables + rows for SELECT."""
    if isinstance(result, bool):
        return {"ask": result}
    return {
        "variables": list(result.variables),
        "rows": [[_term_to_wire(term) for term in row]
                 for row in result.rows],
    }


def _term_to_wire(term) -> dict:
    value = getattr(term, "value", None)
    if value is None:
        return {"type": type(term).__name__.lower(), "text": str(term)}
    wire = {"type": type(term).__name__.lower(), "text": str(value)}
    datatype = getattr(term, "datatype", None)
    if datatype is not None:
        wire["datatype"] = str(datatype)
    return wire


# -- client-side view -----------------------------------------------------

@dataclass
class RemoteQueryResult:
    """The answer to one S2SQL query, decoded on the client.

    The subset of ``QueryResult`` that crosses the wire, with the same
    spellings: ``entities``, ``errors``, ``degraded``,
    ``degraded_sources``, ``store_hit``, ``store_stale``, ``len()``.
    ``server_seconds`` is the server-side wall clock of the request;
    ``elapsed_seconds`` the client-observed round trip."""

    query: str
    query_class: str
    entities: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    degraded: bool = False
    degraded_sources: list = field(default_factory=list)
    store_hit: bool = False
    store_stale: bool = False
    server_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.entities)

    def render_text(self) -> str:
        """A compact, human-readable listing (the CLI's output)."""
        lines = []
        for entity in self.entities:
            for individual in entity.all_individuals():
                values = ", ".join(f"{name}={value!r}" for name, value
                                   in sorted(individual.values.items()))
                lines.append(f"{individual.class_name} "
                             f"{individual.identifier}: {values}")
        if not lines:
            lines.append("(no entities)")
        return "\n".join(lines) + "\n"


def result_from_wire(wire: dict) -> RemoteQueryResult:
    """A :class:`RemoteQueryResult` from one RESULT frame payload; a field
    missing or not of its JSON type raises :class:`CodecError`."""
    sources = json_field(wire, "degraded_sources", list)
    if not all(type(source) is str for source in sources):
        raise CodecError("field 'degraded_sources' holds a non-string")
    return RemoteQueryResult(
        json_field(wire, "query", str), json_field(wire, "query_class", str),
        entities_from_wire(json_field(wire, "shapes", list),
                           json_field(wire, "entities", list)),
        [error_from_json(entry) for entry in json_field(wire, "errors", list)],
        json_field(wire, "degraded", bool), sources,
        json_field(wire, "store_hit", bool),
        json_field(wire, "store_stale", bool),
        json_field(wire, "elapsed_seconds", float))


def results_from_wire(frame: dict) -> list[RemoteQueryResult]:
    """The results one RESULTS frame carries, each a RESULT payload."""
    return [result_from_wire(wire) for wire in json_field(frame, "results", list)]
