"""The relational batch path of release 2.25, frozen when release 2.26
made a rule set one plan per scan.

Up to 2.25 ``RelationalDataSource.execute_rules`` ran every rule through
the per-statement path: ``Database.execute_with_plan`` with a ``scans``
dict the source owned for the call, ``execute_columnar`` filing the
first rule's frame under its scan number and handing every later rule
of that scan a ``PlanReport.as_shared()`` copy, a row-tuple
``ResultSet`` per rule, and ``_record_plan`` counting and digesting each
rule's report.  This module keeps those functions, and the row-tuple
projection and aggregation they called, as they were, so that
``tests/oracles/test_sql_batch_differential.py`` can hold the 2.26 batch
to the columns, digests, counters, ``last_plan`` and errors of 2.25.
The scan itself (``scan_frame``) is shared with the library: it did not
change.  Methods became functions of the object they were defined on,
and the calls between them were spelled to match; ``execute_rules``
plans the rule set on every call, where 2.25 kept the plan in a cache
that changed nothing else.  No other line has been edited since it was
frozen, apart from this header, the imports, and ``as_shared``: an
operator now carries its ``(shared)`` mark in its name, where it had a
``shared`` flag that a second ``as_shared`` set again.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ExtractionError, SqlExecutionError
from repro.obs.metrics import DEFAULT_REGISTRY
from repro.sources.relational.database import _check_engine
from repro.sources.relational.sql.ast import (Aggregate, ColumnRef, Delete,
                                              Select, Star, Update)
from repro.sources.relational.sql.columnar import (OperatorStats, PlanReport,
                                                  _Frame, _order_label,
                                                  _render_scalar, execute_dml,
                                                  scan_frame, scan_key)
from repro.sources.relational.sql.executor import (ResultSet, _eval_condition,
                                                   _has_aggregates, _sort_key,
                                                   execute, fold_aggregate)
from repro.sources.relational.sql.parser import parse_sql


def as_shared(self: PlanReport) -> PlanReport:
    """This scan as a later SELECT of the same batch sees it when it
    reuses the frame: the same operators, marked shared, and nothing
    scanned — the rows were counted where they were read."""
    return replace(self, rows_scanned=0, batches=0, operators=[
        op if op.name.endswith("(shared)")
        else replace(op, name=f"{op.name}(shared)") for op in self.operators])


def execute_columnar(database, select: Select, scans: dict | None = None,
                     key=None) -> tuple[ResultSet, PlanReport]:
    """Run one SELECT through the vectorized engine.

    Returns the result plus the executed plan.  ``scans`` is a dict the
    caller owns for the span of one batch of statements, ``key`` what it
    files this SELECT's scan under — the same for two SELECTs only when
    their :func:`scan_key` is: they scan once and share the frame, each
    with its own plan."""
    if scans is None:
        frame, report = scan_frame(database, select)
    elif key in scans:
        frame, scanned = scans[key]
        report = as_shared(scanned)
    else:
        frame, report = scan_frame(database, select)
        scans[key] = frame, as_shared(report)
    if select.group_by or _has_aggregates(select):
        return _grouped(select, frame, report), report
    return _projected(select, frame, report), report


def execute_with_plan(self, statement, *, engine: str | None = None,
                      scans: dict | None = None, scan_key=None
                      ) -> tuple[ResultSet, PlanReport | None]:
    """Run a parsed statement and return its plan (None unless a
    columnar SELECT) with its result.  :attr:`last_plan` is set too,
    for interactive use; callers sharing the database across threads
    must read the returned plan, which is their own statement's.

    ``scans`` / ``scan_key`` let a caller running a batch of SELECTs
    share their scans (see :func:`~.sql.columnar.execute_columnar`);
    the caller must run nothing that writes while it holds ``scans``."""
    chosen = self.engine if engine is None else _check_engine(engine)
    if chosen == "columnar" and isinstance(statement, Select):
        result, plan = execute_columnar(self, statement, scans, scan_key)
    elif chosen == "columnar" and isinstance(statement, (Update, Delete)):
        result, plan = execute_dml(self, statement), None
    else:
        result, plan = execute(self, statement), None
    self.last_plan = plan
    return result, plan


def _plan(rules: tuple[str, ...]) -> list[tuple[object, int]]:
    """``(statement, scan number)`` per rule: SELECTs with equal
    numbers read the tables alike and share one scan."""
    statements = [parse_sql(rule) for rule in rules]
    if len(rules) > 1 and not all(isinstance(statement, Select)
                                  for statement in statements):
        # Refused before anything runs: a caller that falls back to
        # one rule at a time must not find the write already made.
        raise ExtractionError(
            "only SELECT rules run as a batch; run a statement that "
            "writes on its own")
    numbers: dict[str | None, int] = {}
    return [(statement, numbers.setdefault(
        scan_key(statement) if isinstance(statement, Select) else None,
        len(numbers))) for statement in statements]


def execute_rules(self, rules: list[str]) -> list[list[str]]:
    """Run a rule set; ``result[i]`` is exactly
    ``execute_rule(rules[i])``.

    SELECTs with equal ``(table, joins, where)`` scan, join and
    filter once and project the shared frame each on its own (eight
    single-column rules over one filtered table evaluate the
    predicate once, not eight times).  Each rule still leaves its own
    plan digest; a sharing rule's says ``scan(shared)`` and counts no
    scanned rows.  Frames live in this call only."""
    if not self.connected:
        self.connect()
    self._details.record([])  # a call that raises leaves no digest
    plan = _plan(tuple(rules))
    scans: dict = {}
    columns: list[list[str]] = []
    reports: list[PlanReport | None] = []
    for statement, scan in plan:
        result, report = execute_with_plan(
            self.database, statement, engine=self.engine, scans=scans,
            scan_key=scan)
        if len(result.columns) != 1:
            raise ExtractionError(
                f"SQL extraction rule must select exactly one column, "
                f"got {result.columns}", source_id=self.source_id)
        columns.append(["" if value is None else str(value)
                        for value in result.scalars()])
        reports.append(report)
    # Counted and digested only once the whole set has run: a batch
    # that raises leaves nothing behind for its per-rule re-run.
    digests = [_record_plan(self, report) for report in reports]
    if len(rules) > 1:
        for digest, (_statement, scan) in zip(digests, plan):
            if digest is not None:
                digest["scan"] = scan
    self._details.record(digests)
    return columns


def _projected(select: Select, frame: _Frame,
               report: PlanReport) -> ResultSet:
    columns: list[str] = []
    specs: list[tuple] = []  # output column -> (binding, column position)
    for item in select.items:
        expr = item.expression
        if isinstance(expr, Star):
            if frame.count:
                for binding, table in frame.tables.items():
                    for position, name in enumerate(table.column_names()):
                        columns.append(name)
                        specs.append((binding, position))
            else:
                # Row-engine quirk preserved: star over an empty result
                # has no rows to introspect and labels itself "*".
                columns.append("*")
        elif isinstance(expr, ColumnRef):
            columns.append(item.alias or expr.name)
            if frame.count:
                specs.append(frame.resolve(expr))
        else:
            raise SqlExecutionError("aggregate in non-grouped projection path")

    if frame.count:
        gathered = {spec: frame.values(*spec) for spec in set(specs)}
        projected = list(zip(*(gathered[spec] for spec in specs)))
    else:
        projected = []

    if select.distinct:
        seen: set = set()
        kept: list[int] = []
        for i, values in enumerate(projected):
            if values not in seen:
                seen.add(values)
                kept.append(i)
        report.operators.append(OperatorStats(
            "distinct", rows_in=len(projected), rows_out=len(kept)))
        frame = frame.take(kept)
        projected = [projected[i] for i in kept]

    if select.order_by and frame.count:
        order = list(range(frame.count))
        for item in reversed(select.order_by):
            keys = [_sort_key(value) for value in frame.column(item.column)]
            order.sort(key=keys.__getitem__, reverse=item.descending)
        projected = [projected[i] for i in order]
    if select.order_by:
        report.operators.append(OperatorStats(
            "order_by", _order_label(select), rows_out=len(projected)))

    if select.limit is not None:
        projected = projected[: select.limit]
        report.operators.append(OperatorStats(
            "limit", str(select.limit), rows_out=len(projected)))
    report.operators.append(OperatorStats(
        "project", f"[{', '.join(columns)}]", rows_out=len(projected)))
    return ResultSet(columns, projected)


def _grouped(select: Select, frame: _Frame, report: PlanReport) -> ResultSet:
    group_refs = list(select.group_by)
    groups: dict[tuple, list[int]] = {}
    if frame.count and group_refs:
        for i, key in enumerate(zip(*[frame.column(ref)
                                      for ref in group_refs])):
            groups.setdefault(key, []).append(i)
    elif not group_refs:
        # aggregates over an empty input still yield one row
        groups[()] = list(range(frame.count))

    columns: list[str] = []
    for item in select.items:
        expr = item.expression
        if isinstance(expr, Aggregate):
            default = (f"{expr.function.lower()}"
                       f"({expr.argument.name if expr.argument else '*'})")
            columns.append(item.alias or expr.alias or default)
        elif isinstance(expr, ColumnRef):
            if not any(expr.name == ref.name for ref in group_refs):
                raise SqlExecutionError(
                    f"column {expr.name!r} must appear in GROUP BY")
            columns.append(item.alias or expr.name)
        else:
            raise SqlExecutionError("SELECT * is invalid with GROUP BY")

    arguments: dict[ColumnRef, list] = {}  # aggregate argument -> column
    result_rows: list[tuple] = []
    for key, members in groups.items():
        out: list = []
        for item in select.items:
            expr = item.expression
            if isinstance(expr, ColumnRef):
                position = next(i for i, ref in enumerate(group_refs)
                                if ref.name == expr.name)
                out.append(key[position])
            elif expr.argument is None:
                out.append(fold_aggregate(expr.function, [1] * len(members)))
            elif members:
                if expr.argument not in arguments:
                    arguments[expr.argument] = frame.column(expr.argument)
                column = arguments[expr.argument]
                out.append(fold_aggregate(expr.function, [
                    column[i] for i in members if column[i] is not None]))
            else:
                out.append(fold_aggregate(expr.function, []))
        if select.having is not None:
            # HAVING on grouped columns only, evaluated like the row
            # engine: against the group's first member.
            if not members or not _eval_condition(select.having,
                                                  frame.env(members[0])):
                continue
        result_rows.append(tuple(out))
    report.operators.append(OperatorStats(
        "aggregate",
        f"[{', '.join(columns)}]"
        + (f" group_by=[{', '.join(_render_scalar(ref) for ref in group_refs)}]"
           if group_refs else ""),
        rows_in=frame.count, rows_out=len(result_rows)))

    if select.order_by:
        for item in reversed(select.order_by):
            try:
                position = columns.index(item.column.name)
            except ValueError as exc:
                raise SqlExecutionError(
                    f"ORDER BY column {item.column.name!r} "
                    f"not in result") from exc
            result_rows.sort(key=lambda r: _sort_key(r[position]),
                             reverse=item.descending)
        report.operators.append(OperatorStats(
            "order_by", _order_label(select), rows_out=len(result_rows)))
    if select.limit is not None:
        result_rows = result_rows[: select.limit]
        report.operators.append(OperatorStats(
            "limit", str(select.limit), rows_out=len(result_rows)))
    return ResultSet(columns, result_rows)


def _record_plan(self, plan: PlanReport | None) -> dict | None:
    """Count one executed plan and digest it for its attempt span."""
    if plan is None:
        return None
    metrics = DEFAULT_REGISTRY if self.metrics is None else self.metrics
    metrics.counter(
        "sql_batches_total",
        "scan batches processed by the columnar SQL engine").inc(
            plan.batches, source=self.source_id)
    metrics.counter(
        "sql_rows_scanned_total",
        "rows scanned by the columnar SQL engine").inc(
            plan.rows_scanned, source=self.source_id)
    return {"sql_plan": plan.summary(),
            "sql_rows_scanned": plan.rows_scanned,
            "sql_batches": plan.batches}
