"""Wire encoding of query answers.

A :class:`~repro.core.query.executor.QueryResult` holds live objects
(the extraction outcome, the span tree); over the wire only the *answer*
travels: the assembled entities with their values and links, the error
report, and the degradation/provenance flags callers act on
(``degraded``, ``degraded_sources``, ``store_hit``, ``store_stale``).
The client rebuilds that as a :class:`RemoteQueryResult` over the same
``AssembledEntity`` / ``ErrorEntry`` classes the in-process result holds.

Entities and error entries are written and read by
:mod:`repro.core.instances.codec`: plain values travel as plain JSON, the
two date ranges as tagged objects that ``encode_frame`` writes through
that module's ``json_default``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.instances.codec import (entity_from_json, entity_to_json,
                                    error_from_json, error_to_json)
from ..errors import CodecError


def result_to_wire(result) -> dict:
    """The RESULT payload of one in-process ``QueryResult``."""
    return {
        "query": str(result.query),
        "query_class": result.plan.class_name,
        "entities": [entity_to_json(entity) for entity in result.entities],
        "errors": [error_to_json(entry) for entry in result.errors.entries],
        "degraded": result.degraded,
        "degraded_sources": list(result.degraded_sources),
        "store_hit": result.store_hit,
        "store_stale": result.store_stale,
        "elapsed_seconds": result.elapsed_seconds,
    }


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
    """A :class:`RemoteQueryResult` from one RESULT frame payload."""
    try:
        return RemoteQueryResult(
            query=wire.get("query", ""),
            query_class=wire.get("query_class", ""),
            entities=[entity_from_json(entity)
                      for entity in wire.get("entities", [])],
            errors=[error_from_json(entry)
                    for entry in wire.get("errors", [])],
            degraded=bool(wire.get("degraded", False)),
            degraded_sources=list(wire.get("degraded_sources", [])),
            store_hit=bool(wire.get("store_hit", False)),
            store_stale=bool(wire.get("store_stale", False)),
            server_seconds=float(wire.get("elapsed_seconds", 0.0)),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed result payload: {exc!r}") from exc
