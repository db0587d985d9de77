"""SQL execution over the in-memory catalog.

The executor evaluates parsed statements against a
:class:`~repro.sources.relational.database.Database`.  SELECT produces a
:class:`ResultSet` (column names + row tuples).  Joins are hash joins on
equality conditions when possible, falling back to nested loops.  WHERE
runs on every row, whatever indexes exist: this is the semantics oracle
of the columnar engine, which may seed its scan from one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ....errors import SqlExecutionError
from ....like import like_to_regex
from .ast import (AddColumn, Aggregate, BooleanOp, ColumnRef, Comparison,
                  Condition, CreateIndex, CreateTable, Delete, DropTable,
                  InList, Insert, IsNull, LiteralValue, Not, RenameColumn,
                  Select, Star, Statement, Update)
from ..table import Column, Table


@dataclass
class ResultSet:
    """Columns + rows returned by SELECT (and row counts for DML)."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        """Values of the named result column."""
        try:
            index = self.columns.index(name)
        except ValueError as exc:
            raise SqlExecutionError(
                f"result has no column {name!r}; columns: {self.columns}") from exc
        return [row[index] for row in self.rows]

    def scalars(self) -> list:
        """Values of the single result column."""
        if len(self.columns) != 1:
            raise SqlExecutionError(
                f"scalars() requires a single-column result, got {self.columns}")
        return [row[0] for row in self.rows]

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as column→value dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class _Env:
    """Rows-in-flight during SELECT: binding name -> (table, row)."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict[str, tuple[Table, list | None]]) -> None:
        self.bindings = bindings

    def lookup(self, ref: ColumnRef):
        if ref.table is not None:
            entry = self.bindings.get(ref.table.lower())
            if entry is None:
                raise SqlExecutionError(f"unknown table alias {ref.table!r}")
            table, row = entry
            if row is None:
                return None
            return row[table.column_index(ref.name)]
        matches = []
        for table, row in self.bindings.values():
            if table.has_column(ref.name):
                matches.append((table, row))
        if not matches:
            raise SqlExecutionError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SqlExecutionError(f"ambiguous column {ref.name!r}")
        table, row = matches[0]
        if row is None:
            return None
        return row[table.column_index(ref.name)]


def _eval_scalar(scalar, env: _Env):
    if isinstance(scalar, LiteralValue):
        return scalar.value
    if isinstance(scalar, ColumnRef):
        return env.lookup(scalar)
    raise SqlExecutionError(f"unsupported scalar {scalar!r}")


def _eval_condition(condition: Condition, env: _Env) -> bool:
    if isinstance(condition, BooleanOp):
        if condition.operator == "AND":
            return (_eval_condition(condition.left, env)
                    and _eval_condition(condition.right, env))
        return (_eval_condition(condition.left, env)
                or _eval_condition(condition.right, env))
    if isinstance(condition, Not):
        return not _eval_condition(condition.operand, env)
    if isinstance(condition, IsNull):
        value = _eval_scalar(condition.operand, env)
        return (value is None) != condition.negated
    if isinstance(condition, InList):
        value = _eval_scalar(condition.operand, env)
        options = [_eval_scalar(o, env) for o in condition.options]
        return (value in options) != condition.negated
    if isinstance(condition, Comparison):
        left = _eval_scalar(condition.left, env)
        right = _eval_scalar(condition.right, env)
        if condition.operator == "LIKE":
            if left is None or right is None:
                return False
            return like_to_regex(str(right)).match(str(left)) is not None
        if left is None or right is None:
            return False  # SQL three-valued logic collapses to False here
        try:
            if condition.operator == "=":
                return left == right
            if condition.operator == "!=":
                return left != right
            if condition.operator == "<":
                return left < right
            if condition.operator == ">":
                return left > right
            if condition.operator == "<=":
                return left <= right
            return left >= right
        except TypeError as exc:
            raise SqlExecutionError(
                f"cannot compare {left!r} with {right!r}") from exc
    raise SqlExecutionError(f"unsupported condition {condition!r}")


def execute(database, statement: Statement) -> ResultSet:
    """Execute a parsed statement against ``database``."""
    if isinstance(statement, Select):
        return _execute_select(database, statement)
    if isinstance(statement, Insert):
        table = database.require_table(statement.table)
        for row in statement.rows:
            table.insert(dict(zip(statement.columns, row)))
        return ResultSet(["inserted"], [(len(statement.rows),)])
    if isinstance(statement, (Update, Delete)):
        table = database.require_table(statement.table)
        if isinstance(statement, Update):
            assignments = {table.column_index(name): value
                           for name, value in statement.assignments}
        binding = statement.table.lower()
        positions = [position for position, row in enumerate(table.rows)
                     if statement.where is None or _eval_condition(
                         statement.where, _Env({binding: (table, row)}))]
        if isinstance(statement, Update):
            return ResultSet(["updated"], [
                (table.update_positions(positions, assignments),)])
        return ResultSet(["deleted"], [(table.delete_positions(positions),)])
    if isinstance(statement, CreateTable):
        columns = [Column.of(c.name, c.type, c.not_null)
                   for c in statement.columns]
        database.create_table(statement.table, columns)
        return ResultSet(["created"], [(statement.table,)])
    if isinstance(statement, DropTable):
        database.drop_table(statement.table)
        return ResultSet(["dropped"], [(statement.table,)])
    if isinstance(statement, RenameColumn):
        database.require_table(statement.table).rename_column(
            statement.old, statement.new)
        return ResultSet(["renamed"], [(statement.new,)])
    if isinstance(statement, AddColumn):
        database.require_table(statement.table).add_column(
            Column.of(statement.column.name, statement.column.type,
                      statement.column.not_null))
        return ResultSet(["added"], [(statement.column.name,)])
    if isinstance(statement, CreateIndex):
        database.require_table(statement.table).create_index(statement.column)
        return ResultSet(["indexed"], [(statement.column,)])
    raise SqlExecutionError(f"unsupported statement {statement!r}")


# ---------------------------------------------------------------------------
# SELECT machinery
# ---------------------------------------------------------------------------

def _execute_select(database, select: Select) -> ResultSet:
    base_table = database.require_table(select.table.name)
    base_binding = select.table.binding.lower()

    # Every row: the oracle never seeds from an index.
    rows: list[dict[str, tuple[Table, list]]] = [
        {base_binding: (base_table, row)} for row in base_table.rows]

    for join in select.joins:
        join_table = database.require_table(join.table.name)
        join_binding = join.table.binding.lower()
        rows = _execute_join(rows, join, join_table, join_binding)

    if select.where is not None:
        rows = [bindings for bindings in rows
                if _eval_condition(select.where, _Env(bindings))]

    if select.group_by or _has_aggregates(select):
        return _execute_grouped(select, rows)

    columns, extractors = _projection(select, rows)
    projected = [tuple(extract(_Env(bindings)) for extract in extractors)
                 for bindings in rows]

    if select.distinct:
        # Dedup keeps the first occurrence of each projected tuple AND
        # its source bindings, so a later ORDER BY still sorts every
        # surviving tuple by its own underlying row.
        seen: set = set()
        kept_rows, kept_projected = [], []
        for bindings, values in zip(rows, projected):
            if values in seen:
                continue
            seen.add(values)
            kept_rows.append(bindings)
            kept_projected.append(values)
        rows, projected = kept_rows, kept_projected

    if select.order_by:
        env_rows = list(zip(rows, projected))
        for item in reversed(select.order_by):
            env_rows.sort(
                key=lambda pair: _sort_key(_Env(pair[0]).lookup(item.column)),
                reverse=item.descending)
        projected = [p for _b, p in env_rows]

    if select.limit is not None:
        projected = projected[: select.limit]
    return ResultSet(columns, projected)


def _execute_join(rows, join, join_table: Table, join_binding: str):
    equality = _join_equality(join.condition, join_binding, join_table)
    result = []
    if equality is not None:
        outer_ref, inner_column = equality
        buckets: dict[object, list[list]] = {}
        inner_index = join_table.column_index(inner_column)
        for inner_row in join_table.rows:
            key = inner_row[inner_index]
            if key is None:
                continue  # SQL: NULL = NULL is not a match
            buckets.setdefault(key, []).append(inner_row)
        for bindings in rows:
            key = _Env(bindings).lookup(outer_ref)
            matches = buckets.get(key, []) if key is not None else []
            for inner_row in matches:
                merged = dict(bindings)
                merged[join_binding] = (join_table, inner_row)
                result.append(merged)
            if not matches and join.kind == "LEFT":
                merged = dict(bindings)
                merged[join_binding] = (join_table, None)
                result.append(merged)
        return result
    for bindings in rows:
        matched = False
        for inner_row in join_table.rows:
            merged = dict(bindings)
            merged[join_binding] = (join_table, inner_row)
            if _eval_condition(join.condition, _Env(merged)):
                result.append(merged)
                matched = True
        if not matched and join.kind == "LEFT":
            merged = dict(bindings)
            merged[join_binding] = (join_table, None)
            result.append(merged)
    return result


def _join_equality(condition, join_binding: str, join_table: Table):
    """Detect `outer.col = inner.col` to enable a hash join."""
    if not isinstance(condition, Comparison) or condition.operator != "=":
        return None
    left, right = condition.left, condition.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None

    def is_inner(ref: ColumnRef) -> bool:
        if ref.table is not None:
            return ref.table.lower() == join_binding
        return join_table.has_column(ref.name)

    left_inner, right_inner = is_inner(left), is_inner(right)
    if left_inner and not right_inner:
        return right, left.name
    if right_inner and not left_inner:
        return left, right.name
    return None


def _has_aggregates(select: Select) -> bool:
    return any(isinstance(item.expression, Aggregate) for item in select.items)


def _projection(select: Select, rows):
    """Column labels + per-row extractor callables for plain SELECT."""
    columns: list[str] = []
    extractors = []
    for item in select.items:
        expr = item.expression
        if isinstance(expr, Star):
            bindings = rows[0] if rows else {}
            for binding, (table, _row) in bindings.items():
                for column in table.column_names():
                    columns.append(column)
                    extractors.append(
                        lambda env, b=binding, c=column:
                        env.lookup(ColumnRef(c, b)))
            if not rows:
                columns.append("*")
                extractors.append(lambda env: None)
        elif isinstance(expr, ColumnRef):
            columns.append(item.alias or expr.name)
            extractors.append(lambda env, ref=expr: env.lookup(ref))
        else:
            raise SqlExecutionError(
                "aggregate in non-grouped projection path")
    return columns, extractors


def _sort_key(value):
    """Total order with NULLs first and mixed types grouped by type name."""
    return (value is not None, type(value).__name__, value)


def _execute_grouped(select: Select, rows) -> ResultSet:
    group_refs = list(select.group_by)
    groups: dict[tuple, list] = {}
    for bindings in rows:
        env = _Env(bindings)
        key = tuple(env.lookup(ref) for ref in group_refs)
        groups.setdefault(key, []).append(bindings)
    if not group_refs and not groups:
        groups[()] = []  # aggregates over an empty input still yield one row

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

    result_rows: list[tuple] = []
    for key, members in groups.items():
        out: list = []
        for item in select.items:
            expr = item.expression
            if isinstance(expr, ColumnRef):
                position = next(i for i, ref in enumerate(group_refs)
                                if ref.name == expr.name)
                out.append(key[position])
            else:
                out.append(_aggregate_value(expr, members))
        row = tuple(out)
        if select.having is not None:
            # HAVING over aggregates: re-evaluate with aliases bound is out
            # of scope; we support HAVING on grouped columns only.
            env = _Env(members[0]) if members else None
            if env is None or not _eval_condition(select.having, env):
                continue
        result_rows.append(row)

    if select.order_by:
        for item in reversed(select.order_by):
            try:
                position = columns.index(item.column.name)
            except ValueError as exc:
                raise SqlExecutionError(
                    f"ORDER BY column {item.column.name!r} not in result") from exc
            result_rows.sort(key=lambda r: _sort_key(r[position]),
                             reverse=item.descending)
    if select.limit is not None:
        result_rows = result_rows[: select.limit]
    return ResultSet(columns, result_rows)


def _aggregate_value(aggregate: Aggregate, members):
    if aggregate.argument is None:
        values = [1 for _ in members]
    else:
        values = []
        for bindings in members:
            value = _Env(bindings).lookup(aggregate.argument)
            if value is not None:
                values.append(value)
    return fold_aggregate(aggregate.function, values)


def fold_aggregate(function: str, values: list):
    """Fold one group's non-NULL argument values (both engines)."""
    if function == "COUNT":
        return len(values)
    if not values:
        return None
    if function == "SUM":
        return sum(values)
    if function == "AVG":
        return sum(values) / len(values)
    if function == "MIN":
        return min(values)
    if function == "MAX":
        return max(values)
    raise SqlExecutionError(f"unsupported aggregate {function!r}")
