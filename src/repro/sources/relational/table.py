"""Tables: typed columns, columnar storage, hash indexes.

Storage is column-major: each column holds a dense typed buffer
(``array('q')`` for INTEGER, ``array('d')`` for REAL, a ``bytearray``
for BOOLEAN, a plain list for TEXT) plus a validity bitmap marking
NULLs.  The vectorized executor in ``sql/columnar.py`` reads columns
directly; both executors mutate by position (:meth:`Table.update_positions`
/ :meth:`Table.delete_positions`); the row-at-a-time executor (and content
fingerprinting) read the :attr:`Table.rows` property, a lazily
materialized row-major view cached until the next mutation.

A hash index maps a column's values to their ascending row positions.
The columnar scan builds one the first time it seeds from the column
(``CREATE INDEX`` only builds it early); every write keeps it current.
Writers and index builds share one per-table lock, so an index built
beside a writer never misses a write; a read of an existing index
takes no lock.
"""

from __future__ import annotations

import array
import threading
from collections import defaultdict
from dataclasses import dataclass

from ...errors import SqlError, SqlExecutionError
from .types import canonical_type, coerce_value


@dataclass(frozen=True)
class Column:
    """A typed table column."""

    name: str
    type: str  # canonical: INTEGER/REAL/TEXT/BOOLEAN
    not_null: bool = False

    @classmethod
    def of(cls, name: str, declared_type: str, not_null: bool = False) -> "Column":
        """Build a column, canonicalizing the declared SQL type."""
        return cls(name, canonical_type(declared_type), not_null)


class ColumnData:
    """Column-major value storage: typed buffer + validity bitmap.

    INTEGER columns promote transparently from ``array('q')`` to a plain
    object list when a value exceeds 64 bits (Python ints are unbounded;
    the dense buffer is only an optimization).
    """

    __slots__ = ("type", "_buffer", "_valid", "_nulls")

    def __init__(self, type_name: str, values=()) -> None:
        self.type = type_name
        if type_name == "INTEGER":
            self._buffer: object = array.array("q")
        elif type_name == "REAL":
            self._buffer = array.array("d")
        elif type_name == "BOOLEAN":
            self._buffer = bytearray()
        else:  # TEXT
            self._buffer = []
        self._valid = bytearray()
        self._nulls = 0
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return len(self._valid)

    def append(self, value) -> None:
        """Append one (already coerced) value; None marks a NULL slot."""
        if value is None:
            self._nulls += 1
            self._valid.append(0)
            if isinstance(self._buffer, list):
                self._buffer.append(None)
            else:
                self._buffer.append(0)  # placeholder under a 0 validity bit
            return
        self._valid.append(1)
        if isinstance(self._buffer, list):
            self._buffer.append(value)
        elif self.type == "BOOLEAN":
            self._buffer.append(1 if value else 0)
        else:
            try:
                self._buffer.append(value)
            except OverflowError:
                self._promote()
                self._buffer.append(value)

    def set(self, position: int, value) -> None:
        """Overwrite one slot (already coerced); None marks NULL."""
        was_valid = self._valid[position]
        if value is None:
            if was_valid:
                self._nulls += 1
            self._valid[position] = 0
            if isinstance(self._buffer, list):
                self._buffer[position] = None
            else:
                self._buffer[position] = 0
            return
        if not was_valid:
            self._nulls -= 1
        self._valid[position] = 1
        if isinstance(self._buffer, list):
            self._buffer[position] = value
        elif self.type == "BOOLEAN":
            self._buffer[position] = 1 if value else 0
        else:
            try:
                self._buffer[position] = value
            except OverflowError:
                self._promote()
                self._buffer[position] = value

    def get(self, position: int):
        """The Python value at ``position`` (None for NULL slots)."""
        if not self._valid[position]:
            return None
        if self.type == "BOOLEAN":
            return self._buffer[position] == 1
        return self._buffer[position]

    def gather(self, positions) -> list:
        """Values at ``positions`` as Python objects (None for NULLs).

        A ``range`` (the contiguous full-scan batch shape) takes slice
        fast paths over the dense buffer; arbitrary position lists pay
        one indexed read per element.
        """
        buffer, valid = self._buffer, self._valid
        if isinstance(positions, range):
            lo, hi = positions.start, positions.stop
            chunk = buffer[lo:hi]
            if self.type == "BOOLEAN":
                values = [v == 1 for v in chunk]
            elif isinstance(buffer, list):
                values = chunk
            else:
                values = chunk.tolist()
            if self._nulls:
                return [v if ok else None
                        for v, ok in zip(values, valid[lo:hi])]
            return values
        if self.type == "BOOLEAN":
            return [(buffer[i] == 1) if valid[i] else None
                    for i in positions]
        if self._nulls:
            return [buffer[i] if valid[i] else None for i in positions]
        return [buffer[i] for i in positions]

    def _promote(self) -> None:
        # 64-bit overflow: fall back to object storage for this column.
        self._buffer = [v if ok else None
                        for v, ok in zip(self._buffer, self._valid)]


def _move(index_map: dict, positions, old_values: list, new) -> bool:
    """Re-file ``positions`` from their old values' buckets into
    ``new``'s, keeping every bucket ascending and dropping emptied ones.
    False when an old value has no bucket to leave (a NaN equals no key,
    not even its own): the caller then rehashes the column."""
    leaving: dict[object, set[int]] = {}
    for position, old in zip(positions, old_values):
        if old != new:
            leaving.setdefault(old, set()).add(position)
    if not leaving:
        return True
    for old, gone in leaving.items():
        bucket = index_map.get(old)
        if bucket is None:
            return False
        kept = [position for position in bucket if position not in gone]
        if kept:
            index_map[old] = kept
        else:
            del index_map[old]
    arrived = set().union(*leaving.values())
    index_map[new] = sorted(index_map.get(new, []) + list(arrived))
    return True


class Table:
    """An in-memory columnar table with optional single-column hash indexes."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise SqlError(f"table {name!r} must have at least one column")
        names = [c.name.lower() for c in columns]
        if len(set(names)) != len(names):
            raise SqlError(f"duplicate column name in table {name!r}")
        self.name = name
        self.columns = list(columns)
        self._index_of = {c.name.lower(): i for i, c in enumerate(columns)}
        self._data: list[ColumnData] = [ColumnData(c.type) for c in columns]
        self._length = 0
        self._indexes: dict[str, dict[object, list[int]]] = {}
        self._version = 0
        self._rows_cache: list[list] | None = None
        self._rows_version = -1
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- schema ----------------------------------------------------------

    def column_index(self, name: str) -> int:
        """Positional index of a column (case-insensitive)."""
        index = self._index_of.get(name.lower())
        if index is None:
            raise SqlExecutionError(
                f"no column {name!r} in table {self.name!r} "
                f"(columns: {[c.name for c in self.columns]})")
        return index

    def has_column(self, name: str) -> bool:
        """Whether the table has a column named ``name``."""
        return name.lower() in self._index_of

    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def column_data(self, position: int) -> ColumnData:
        """Raw columnar storage for the column at ``position``."""
        return self._data[position]

    def rename_column(self, old: str, new: str) -> None:
        """ALTER TABLE ... RENAME COLUMN — the schema-drift primitive used
        by the maintenance experiment (E9)."""
        index = self.column_index(old)
        if self.has_column(new):
            raise SqlError(f"column {new!r} already exists in {self.name!r}")
        column = self.columns[index]
        with self._lock:
            self.columns[index] = Column(new, column.type, column.not_null)
            self._index_of = {c.name.lower(): i
                              for i, c in enumerate(self.columns)}
            key = old.lower()
            if key in self._indexes:
                self._indexes[new.lower()] = self._indexes.pop(key)

    def add_column(self, column: Column) -> None:
        """Append a column; existing rows backfill with NULL."""
        if self.has_column(column.name):
            raise SqlError(
                f"column {column.name!r} already exists in {self.name!r}")
        with self._lock:
            self.columns.append(column)
            self._index_of[column.name.lower()] = len(self.columns) - 1
            self._data.append(ColumnData(column.type, [None] * self._length))
            self._version += 1

    # -- data ------------------------------------------------------------

    @property
    def rows(self) -> list[list]:
        """Row-major view (list of lists), cached until the next mutation.

        Read-only: mutate through :meth:`insert` and the ``update_*`` /
        ``delete_*`` methods, never through this list.
        """
        if self._rows_cache is None or self._rows_version != self._version:
            if self._length:
                span = range(self._length)
                columns = [data.gather(span) for data in self._data]
                self._rows_cache = [list(values) for values in zip(*columns)]
            else:
                self._rows_cache = []
            self._rows_version = self._version
        return self._rows_cache

    def row_at(self, position: int) -> list:
        """One materialized row."""
        return [data.get(position) for data in self._data]

    def insert(self, values: dict[str, object]) -> None:
        """Insert one row from a column→value map, with coercion."""
        row: list = [None] * len(self.columns)
        for name, value in values.items():
            index = self.column_index(name)
            row[index] = coerce_value(value, self.columns[index].type)
        for index, column in enumerate(self.columns):
            if column.not_null and row[index] is None:
                raise SqlExecutionError(
                    f"NULL in NOT NULL column {column.name!r} of "
                    f"{self.name!r}")
        with self._lock:
            position = self._length
            for index, value in enumerate(row):
                self._data[index].append(value)
            self._length += 1
            self._version += 1
            for column_key, index_map in self._indexes.items():
                index_map[row[self._index_of[column_key]]].append(position)

    def delete_positions(self, positions: list[int]) -> int:
        """Delete the rows at ``positions``; rebuilds indexes."""
        if not positions:
            return 0
        doomed = set(positions)
        with self._lock:
            keep = [position for position in range(self._length)
                    if position not in doomed]
            self._data = [ColumnData(column.type, data.gather(keep))
                          for column, data in zip(self.columns, self._data)]
            self._length = len(keep)
            self._version += 1
            for column_key in self._indexes:
                self._indexes[column_key] = self._hash_column(
                    self._index_of[column_key])
        return len(doomed)

    def update_positions(self, positions: list[int],
                         assignments: dict[int, object]) -> int:
        """Set column-index -> value on the rows at ``positions``; an
        index over an assigned column moves only those positions."""
        if not positions:
            return 0
        coerced = {index: coerce_value(value, self.columns[index].type)
                   for index, value in assignments.items()}
        with self._lock:
            for index, value in coerced.items():
                data = self._data[index]
                key = self.columns[index].name.lower()
                index_map = self._indexes.get(key)
                old_values = (None if index_map is None
                              else data.gather(positions))
                for position in positions:
                    data.set(position, value)
                if index_map is not None and not _move(
                        index_map, positions, old_values, value):
                    self._indexes[key] = self._hash_column(index)
            self._version += 1
        return len(positions)

    # -- indexes -----------------------------------------------------------

    def create_index(self, column: str) -> dict[object, list[int]]:
        """The hash index over one column (value -> ascending row
        positions), built on the first call."""
        key = column.lower()
        index_map = self._indexes.get(key)
        if index_map is None:
            with self._lock:
                index_map = self._indexes.get(key)
                if index_map is None:
                    index_map = self._hash_column(self.column_index(column))
                    self._indexes[key] = index_map
        return index_map

    def key_positions(self, column: str) -> dict[object, list[int]]:
        """value -> ascending row positions of one column (a join's build
        side): the hash index when there is one, else hashed straight
        from the column buffer."""
        index_map = self._indexes.get(column.lower())
        if index_map is None:
            index_map = self._hash_column(self.column_index(column))
        return index_map

    def has_index(self, column: str) -> bool:
        """Whether ``column`` is hash-indexed."""
        return column.lower() in self._indexes

    def _hash_column(self, position: int) -> dict[object, list[int]]:
        index_map: dict[object, list[int]] = defaultdict(list)
        for row_number, value in enumerate(
                self._data[position].gather(range(self._length))):
            index_map[value].append(row_number)
        return index_map

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={len(self.columns)}, rows={self._length})"
