"""Database catalog: named tables plus the SQL entry point."""

from __future__ import annotations

import re

from ...errors import SqlError, SqlExecutionError
from .sql.ast import Delete, Select, Update
from .sql.columnar import (BatchRun, PlanReport, execute_columnar,
                           execute_dml, project, render_condition,
                           scan_frame)
from .sql.executor import ResultSet, _has_aggregates, execute
from .sql.parser import parse_sql
from .table import Column, Table

#: Valid values for the SELECT execution engine knob.
ENGINES = ("row", "columnar")


def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise SqlError(f"unknown SQL engine {engine!r} "
                       f"(choose from {list(ENGINES)})")
    return engine


class Database:
    """A named collection of tables accepting SQL statements.

    The simulated "remote DBMS" of the B2B scenarios: organizations each
    hold a :class:`Database`, and the middleware's database extractor runs
    mapping-entry SQL against it through
    :class:`~repro.sources.relational.source.RelationalDataSource`.

    ``engine`` selects how statements execute: ``"columnar"`` (default)
    runs every SELECT — joins included — on the vectorized executor
    over column-major storage, and picks the rows of an UPDATE / DELETE
    with the same vector filter; ``"row"`` is the row-at-a-time oracle.
    INSERT and DDL have nothing to vectorize and share one path.
    """

    def __init__(self, name: str = "default", *,
                 engine: str = "columnar") -> None:
        self.name = name
        self.engine = _check_engine(engine)
        self.last_plan: PlanReport | None = None
        self._tables: dict[str, Table] = {}

    # -- catalog ----------------------------------------------------------

    def create_table(self, name: str, columns: list[Column]) -> Table:
        """Add a table to the catalog."""
        key = name.lower()
        if key in self._tables:
            raise SqlExecutionError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        if self._tables.pop(name.lower(), None) is None:
            raise SqlExecutionError(f"no such table: {name!r}")

    def require_table(self, name: str) -> Table:
        """Look up a table, raising with the catalog contents."""
        table = self._tables.get(name.lower())
        if table is None:
            raise SqlExecutionError(
                f"no such table: {name!r} (tables: {sorted(self._tables)})")
        return table

    def has_table(self, name: str) -> bool:
        """Whether the catalog holds ``name``."""
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(t.name for t in self._tables.values())

    # -- SQL ----------------------------------------------------------------

    def execute(self, sql: str, *, engine: str | None = None) -> ResultSet:
        """Parse and run one SQL statement.

        ``engine`` overrides the database's configured engine for this
        statement.  Columnar SELECTs record their executed plan on
        :attr:`last_plan`; every other path clears it.
        """
        return self.execute_statement(parse_sql(sql), engine=engine)

    def execute_statement(self, statement, *,
                          engine: str | None = None) -> ResultSet:
        """Run an already parsed statement (see :meth:`execute`)."""
        chosen = self.engine if engine is None else _check_engine(engine)
        if chosen == "columnar" and isinstance(statement, Select):
            result, plan = execute_columnar(self, statement)
        elif chosen == "columnar" and isinstance(statement, (Update, Delete)):
            result, plan = execute_dml(self, statement), None
        else:
            result, plan = execute(self, statement), None
        self.last_plan = plan
        return result

    def execute_batch(self, plan, *, engine: str | None = None
                      ) -> list[BatchRun]:
        """Run ``(statement, scan number)`` pairs in order until one
        returns other than one column.  Columnar SELECTs with equal
        numbers (equal :func:`~.sql.columnar.scan_key`) scan once, with
        one report, and each run only their own tail over the shared
        frame; anything else runs alone, with no report.  Sets
        :attr:`last_plan` to the last statement's whole plan.  The caller
        runs nothing that writes meanwhile."""
        chosen = self.engine if engine is None else _check_engine(engine)
        frames: dict = {}
        runs: list[BatchRun] = []
        try:
            for statement, scan in plan:
                if chosen == "row" or not isinstance(statement, Select):
                    result = self.execute_statement(statement, engine=chosen)
                    runs.append(BatchRun(result.columns,
                                         [row[0] for row in result.rows]))
                else:
                    shared = scan in frames
                    if not shared:
                        frames[scan] = scan_frame(self, statement)
                    frame, report = frames[scan]
                    tail: list = []
                    names, columns = project(statement, frame, tail)
                    runs.append(BatchRun(names, columns[0], report, tail,
                                         shared))
                if len(runs[-1].names) != 1:
                    break
        finally:
            if runs:
                self.last_plan = runs[-1].plan()
        return runs

    def explain(self, sql: str, *, engine: str | None = None) -> str:
        """Render the operator plan for one statement without keeping
        its result: columnar SELECTs run and report batch counts and
        selectivity; row SELECTs render their static row-at-a-time
        shape; non-SELECTs report there is no plan."""
        statement = parse_sql(sql)
        chosen = self.engine if engine is None else _check_engine(engine)
        if not isinstance(statement, Select):
            return (f"engine={chosen} statement="
                    f"{type(statement).__name__} (no plan: not a SELECT)")
        if chosen == "columnar":
            _result, report = execute_columnar(self, statement)
            return report.render()
        return _render_row_plan(self, statement)

    def executescript(self, script: str) -> list[ResultSet]:
        """Run several semicolon-separated statements."""
        results = []
        for statement in _split_statements(script):
            results.append(self.execute(statement))
        return results

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names()})"


def _render_row_plan(database: Database, select: Select) -> str:
    """Static plan shape for the row-at-a-time oracle (no batch stats —
    it has no batches)."""
    table = database.require_table(select.table.name)
    lines = [f"engine=row table={table.name} rows={len(table)}",
             f"scan {table.name} (row-at-a-time)"]
    for join in select.joins:
        lines.append(f"join {join.table.name} ({join.kind})")
    if select.where is not None:
        lines.append(f"filter {render_condition(select.where)}")
    if select.group_by or _has_aggregates(select):
        lines.append("aggregate")
    if select.order_by:
        lines.append("order_by")
    lines.append("project")
    return "\n".join(lines)


def _split_statements(script: str) -> list[str]:
    """Split on semicolons outside single-quoted strings (an unclosed
    quote runs to the end of the script)."""
    pieces = re.findall(r"(?:[^;']|'[^']*'?)+", script)
    return [text.strip() for text in pieces if text.strip()]
