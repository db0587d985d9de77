"""In-memory relational database engine with a SQL subset.

The structured-source substrate: the paper's mapping entries carry literal
SQL extraction rules (``SELECT aatribute FROM atable WHERE ...``,
section 2.3.1 step 3), so this package implements enough of a relational
engine to run them for real — catalog, typed tables, hash indexes, and a
SQL dialect covering DDL (CREATE/DROP/ALTER TABLE), DML (INSERT, UPDATE,
DELETE) and queries (SELECT with projections, WHERE, INNER/LEFT JOIN,
GROUP BY with aggregates, ORDER BY, DISTINCT, LIMIT).

Storage is columnar (typed per-column buffers plus validity bitmaps)
and every SELECT — joins included — runs on the vectorized batch
executor in ``sql/columnar.py``; the row-at-a-time executor remains
selectable as ``engine="row"`` and serves as the differential-testing
oracle.  See ``docs/relational.md``.
"""

from .database import ENGINES, Database
from .table import Column, ColumnData, Table
from .source import RelationalDataSource

__all__ = ["Database", "Table", "Column", "ColumnData", "ENGINES",
           "RelationalDataSource"]
