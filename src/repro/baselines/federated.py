"""The hand-written federated querier.

The "no middleware" engineering baseline: for every source the integrator
author writes a callable producing already-normalized record dicts, and
queries are Python predicates.  It achieves the same answers as S2S — at
the cost of bespoke per-source code with no shared ontology, no reusable
mapping repository and no declarative query language.  E1 uses it to show
that S2S's generality costs little over hand-rolled integration; E9 shows
its maintenance profile (every source change edits code, not mapping
entries).
"""

from __future__ import annotations

from typing import Callable, Iterable

Record = dict[str, object]
Producer = Callable[[], Iterable[Record]]
Predicate = Callable[[Record], bool]


class FederatedQuerier:
    """Unions records from hand-written per-source producers."""

    def __init__(self) -> None:
        self._producers: dict[str, Producer] = {}

    def add_source(self, source_id: str, producer: Producer) -> None:
        """Attach a hand-written record producer for one source."""
        if source_id in self._producers:
            raise ValueError(f"producer for {source_id!r} already added")
        self._producers[source_id] = producer

    def query(self, predicate: Predicate | None = None) -> list[Record]:
        """Union all producers' records, filtered by ``predicate``."""
        results: list[Record] = []
        for source_id, producer in self._producers.items():
            for record in producer():
                tagged = dict(record)
                tagged["_source"] = source_id
                if predicate is None or predicate(tagged):
                    results.append(tagged)
        return results

    def source_ids(self) -> list[str]:
        """IDs of the attached producers, sorted."""
        return sorted(self._producers)

    def __len__(self) -> int:
        return len(self._producers)
