"""Extraction schemas (paper section 2.4.1).

"After processing the query, the system must retrieve data in order to
answer the query.  The extraction is based on attributes, so this area
retrieves extraction schemas of the required attributes, thus indicating
to the extractor how the extraction is executed."

An :class:`ExtractionSchema` is the per-query slice of the attribute
repository: the mapping entries for the required attributes, grouped by
data source so each source is visited once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...ids import AttributePath
from ..mapping.attributes import MappingEntry
from ..mapping.repository import AttributeRepository


@dataclass
class ExtractionSchema:
    """Mapping entries for one extraction run, grouped by source.

    Failover replicas (entries with ``replica_of`` set) are kept out of
    the normal per-source fan-out: they sit in ``replicas``, keyed by
    ``(attribute_id, primary_source_id)``, and are only consulted when
    the primary's extraction fails (see the Extractor Manager)."""

    requested: list[AttributePath]
    by_source: dict[str, list[MappingEntry]] = field(default_factory=dict)
    missing: list[AttributePath] = field(default_factory=list)
    replicas: dict[tuple[str, str], list[MappingEntry]] = field(
        default_factory=dict)

    @classmethod
    def build(cls, repository: AttributeRepository,
              attributes: list[AttributePath]) -> "ExtractionSchema":
        """Collect entries for ``attributes``; unmapped paths are recorded in
        ``missing`` rather than raising — a query may legitimately touch
        attributes no source provides, and the instance generator reports
        them through the error channel."""
        schema = cls(requested=list(attributes))
        for path in attributes:
            entries = repository.try_entries_for(path)
            if not entries:
                schema.missing.append(path)
                continue
            primaries = [e for e in entries if not e.is_replica]
            if not primaries:
                # Replicas with no surviving primary still serve the
                # attribute: promote them so the data stays reachable.
                primaries = entries
            for entry in primaries:
                schema.by_source.setdefault(entry.source_id, []).append(entry)
            for entry in entries:
                if entry.is_replica and entry not in primaries:
                    key = (str(path), entry.replica_of)
                    schema.replicas.setdefault(key, []).append(entry)
        return schema

    def restricted_to(self, source_ids) -> "ExtractionSchema":
        """This schema cut down to ``source_ids`` (a fleet shard, or the
        changed sources of a delta refresh).

        Replica mappings follow their *primary*: they ride along when it
        is kept, wherever the replica's own source lives, so per-entry
        failover still works on the slice.  ``requested`` and ``missing``
        are whole-plan facts and stay as they are."""
        wanted = set(source_ids)
        return ExtractionSchema(
            requested=list(self.requested),
            by_source={source_id: list(entries)
                       for source_id, entries in self.by_source.items()
                       if source_id in wanted},
            missing=list(self.missing),
            replicas={key: list(entries)
                      for key, entries in self.replicas.items()
                      if key[1] in wanted})

    def replicas_for(self, attribute_id: str,
                     source_id: str) -> list[MappingEntry]:
        """Failover entries for one (attribute, primary source) pair, in
        registration order."""
        return list(self.replicas.get((attribute_id, source_id), []))

    def source_ids(self) -> list[str]:
        """Sources this extraction must visit, sorted."""
        return sorted(self.by_source)

    def entry_count(self) -> int:
        """Total mapping entries in the schema."""
        return sum(len(entries) for entries in self.by_source.values())

    def __bool__(self) -> bool:
        return bool(self.by_source)
