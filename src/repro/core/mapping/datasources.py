"""The Data Source Repository (paper section 2.3.2).

"Registering data sources separately from the extraction rules is useful
to create a centralized connection information store, allowing reuse and
preventing information redundancy."  The repository maps source IDs to
live :class:`~repro.sources.base.DataSource` connectors and exposes their
:class:`~repro.sources.base.ConnectionInfo` for persistence.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import UnknownDataSourceError, MappingError
from ...sources.base import ConnectionInfo, DataSource


class DataSourceRepository:
    """Registry of data sources keyed by source ID."""

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter, bumped on every (un)registration.

        The sharded query engine's spawn pools hold repository replicas
        pickled at fleet start; they watch this version to know when
        their replica went stale and the fleet must be rebuilt."""
        return self._version

    def register(self, source: DataSource, *, replace: bool = False) -> str:
        """Register a connector under its ``source_id``; returns the ID."""
        if source.source_id in self._sources and not replace:
            raise MappingError(
                f"data source {source.source_id!r} already registered")
        self._sources[source.source_id] = source
        self._version += 1
        return source.source_id

    def get(self, source_id: str) -> DataSource:
        """Look up a source by ID, raising when unknown."""
        source = self._sources.get(source_id)
        if source is None:
            raise UnknownDataSourceError(source_id)
        return source

    def connection_info(self, source_id: str) -> ConnectionInfo:
        """The 'Obtain Data Source Definition' lookup of section 2.4.2."""
        return self.get(source_id).connection_info()

    def has(self, source_id: str) -> bool:
        """Whether ``source_id`` is registered."""
        return source_id in self._sources

    def ids(self) -> list[str]:
        """All registered source IDs, sorted."""
        return sorted(self._sources)

    def __iter__(self) -> Iterator[DataSource]:
        return iter(self._sources.values())

    def __len__(self) -> int:
        return len(self._sources)
