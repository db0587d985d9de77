"""Vectorized columnar execution: every SELECT, and the row selection of
UPDATE / DELETE.

Operators work on a *frame* — one vector of row positions per table
binding — instead of one row at a time.  The scan yields the base
table's positions (all of them, or a hash-index seed), the filter
evaluates a condition into a boolean mask per ``BATCH_SIZE`` rows and
compresses the frame by it, a join probes a hash of the join table's
key column with the surviving positions and appends one more position
vector (``None`` marks a LEFT join's unmatched side), and projection
materializes output tuples late — gathering only the surviving
positions of the referenced columns.  Aggregation buckets frame rows by
group key and folds each group's values with the row engine's fold.
A single-table SELECT is simply the one-binding frame.

Predicate pushdown: when every join is an equi-join whose keys resolve
unambiguously, the leading top-level AND conjuncts of WHERE that read
the base table only run *before* the joins (valid for INNER and LEFT,
which both preserve the base side), so the probe sees the filtered
selection vector instead of the whole table.

Index seed: when WHERE's *leading* top-level AND conjunct is ``col =
literal`` over the base binding (a non-NULL literal) and runs first —
no joins, or pushed below them — the scan yields only the positions the
column's hash index files under the literal, building the index on
first use.  Only the leading conjunct may seed: the row engine
short-circuits left to right, so a row that fails it never reaches a
later conjunct that could raise, and skipping it is unobservable.

The row executor in :mod:`.executor` is the semantics oracle: for every
query the columnar result must be row-for-row identical, errors
included (the differential suite in
``tests/sources/test_sql_differential.py`` checks this property).  Two
deliberate consequences:

* a batch whose eager mask evaluation raises re-runs row-at-a-time
  through the oracle's own ``_eval_condition``, reproducing its
  short-circuit behaviour and its exact ``cannot compare`` error; a
  ``TypeError`` under pushdown abandons the pushdown, so the rows the
  join would have dropped are never compared;
* column-resolution errors surface only when rows actually flow into
  the stage that reads the column, as the row engine's lazy per-row
  lookups do.

Each SELECT returns the :class:`ResultSet` plus a :class:`PlanReport`
carrying the operator chain with batch counts and selectivity —
rendered by ``explain_sql`` and surfaced as span annotations / metrics
by the relational source.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import compress
from typing import NamedTuple

from ....errors import SqlExecutionError
from ....like import like_to_regex
from .ast import (Aggregate, BooleanOp, ColumnRef, Comparison, InList,
                  IsNull, LiteralValue, Not, Select, Star, Update)
from .executor import (ResultSet, _Env, _eval_condition, _has_aggregates,
                       _join_equality, _sort_key, fold_aggregate)

#: Rows per scan batch; one mask evaluation covers one batch.
BATCH_SIZE = 4096

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass
class OperatorStats:
    """One operator in an executed plan; a name ending ``(shared)`` ran
    for an earlier SELECT of the same batch and is reused."""

    name: str
    detail: str = ""
    rows_in: int | None = None
    rows_out: int | None = None

    def render(self) -> str:
        parts = [self.name]
        if self.detail:
            parts.append(self.detail)
        stats = []
        if self.rows_in is not None:
            stats.append(f"in={self.rows_in}")
        if self.rows_out is not None:
            stats.append(f"out={self.rows_out}")
        if self.rows_in is not None and self.rows_out is not None:
            ratio = self.rows_out / self.rows_in if self.rows_in else 0.0
            stats.append(f"selectivity={ratio:.3f}")
        if stats:
            parts.append(f"[{', '.join(stats)}]")
        return " ".join(parts)


@dataclass
class PlanReport:
    """The executed operator chain plus scan-level counters.

    ``rows_scanned`` counts the base table's scan candidates plus every
    join build side hashed or looped over (a reused hash index scans
    nothing)."""

    engine: str
    table: str
    rows_total: int
    rows_scanned: int
    batches: int
    batch_size: int = BATCH_SIZE
    operators: list[OperatorStats] = field(default_factory=list)

    def summary(self) -> str:
        """Compact operator chain, e.g. ``scan>filter>project``."""
        return ">".join(op.name for op in self.operators)

    def render(self) -> str:
        """Multi-line plan: one header line, one line per operator."""
        header = (f"engine={self.engine} table={self.table} "
                  f"rows={self.rows_total} batch_size={self.batch_size} "
                  f"batches={self.batches}")
        return "\n".join([header] + [op.render() for op in self.operators])


class BatchRun(NamedTuple):
    """One statement of ``Database.execute_batch``: its result's column
    names and first column; for a columnar SELECT also its scan's report,
    its own operators after the scan, and whether an earlier statement
    ran that scan (and so counted its rows)."""

    names: list[str]
    values: list
    report: PlanReport | None = None
    tail: list[OperatorStats] = ()
    shared: bool = False

    def digest(self) -> dict | None:
        """The statement's operator chain, a shared scan's marked
        ``(shared)``, and the rows and batches it scanned."""
        if self.report is None:
            return None
        mark = "(shared)" if self.shared else ""
        return {"sql_plan": ">".join(
                    [op.name + mark for op in self.report.operators]
                    + [op.name for op in self.tail]),
                "sql_rows_scanned": 0 if self.shared
                else self.report.rows_scanned,
                "sql_batches": 0 if self.shared else self.report.batches}

    def plan(self) -> PlanReport | None:
        """The statement's whole plan, as :meth:`digest` describes it."""
        if self.report is None:
            return None
        if not self.shared:
            return replace(self.report,
                           operators=self.report.operators + self.tail)
        return replace(self.report, rows_scanned=0, batches=0, operators=[
            replace(op, name=f"{op.name}(shared)")
            for op in self.report.operators] + self.tail)


def render_condition(condition) -> str:
    """SQL-ish text for a condition tree (used in plan rendering)."""
    if isinstance(condition, BooleanOp):
        return (f"({render_condition(condition.left)} {condition.operator} "
                f"{render_condition(condition.right)})")
    if isinstance(condition, Not):
        return f"(NOT {render_condition(condition.operand)})"
    if isinstance(condition, IsNull):
        middle = "IS NOT NULL" if condition.negated else "IS NULL"
        return f"({_render_scalar(condition.operand)} {middle})"
    if isinstance(condition, InList):
        options = ", ".join(_render_scalar(o) for o in condition.options)
        middle = "NOT IN" if condition.negated else "IN"
        return f"({_render_scalar(condition.operand)} {middle} ({options}))"
    if isinstance(condition, Comparison):
        return (f"({_render_scalar(condition.left)} {condition.operator} "
                f"{_render_scalar(condition.right)})")
    return repr(condition)


def _render_scalar(scalar) -> str:
    if isinstance(scalar, ColumnRef):
        return f"{scalar.table}.{scalar.name}" if scalar.table else scalar.name
    value = scalar.value
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


# ---------------------------------------------------------------------------
# The frame: joined tuples in flight, one position vector per binding
# ---------------------------------------------------------------------------

class _Frame:
    """``count`` joined tuples, late-materialized: ``positions[binding]``
    holds each tuple's row position in ``tables[binding]`` (``None`` for
    the NULL-extended side of a LEFT join; ``nullable`` names the
    bindings that may hold one).  Binding order is the row engine's
    ``_Env`` order, which ``*`` expands in."""

    __slots__ = ("tables", "positions", "nullable", "count")

    def __init__(self, tables: dict, positions: dict, nullable: frozenset,
                 count: int) -> None:
        self.tables = tables
        self.positions = positions
        self.nullable = nullable
        self.count = count

    def _derive(self, pick) -> "_Frame":
        positions = {binding: pick(vector)
                     for binding, vector in self.positions.items()}
        return _Frame(self.tables, positions, self.nullable,
                      len(next(iter(positions.values()))))

    def batches(self):
        """The frame in ``BATCH_SIZE``-tuple slices."""
        if self.count <= BATCH_SIZE:
            return (self,) if self.count else ()
        return (self._derive(lambda vector: vector[start:start + BATCH_SIZE])
                for start in range(0, self.count, BATCH_SIZE))

    def filter(self, mask: list[bool]) -> "_Frame":
        return self._derive(lambda vector: list(compress(vector, mask)))

    def take(self, indices: list[int]) -> "_Frame":
        return self._derive(lambda vector: [vector[i] for i in indices])

    def bind(self, binding: str, table, positions: list,
             nullable: bool) -> "_Frame":
        """This frame with one more position vector (a join's output);
        re-binding a name replaces it in place, like the row engine's
        per-row dict."""
        names = self.nullable - {binding}
        return _Frame({**self.tables, binding: table},
                      {**self.positions, binding: positions},
                      names | {binding} if nullable else names, self.count)

    def resolve(self, ref: ColumnRef) -> tuple[str, int | None]:
        """``(binding, column position)`` for ``ref``, raising what the
        row engine's per-row ``_Env.lookup`` raises.  Call only when
        tuples flow (``count > 0``): the oracle resolves lazily."""
        if ref.table is not None:
            binding = ref.table.lower()
            table = self.tables.get(binding)
            if table is None:
                raise SqlExecutionError(f"unknown table alias {ref.table!r}")
            if (binding in self.nullable and not table.has_column(ref.name)
                    and all(p is None for p in self.positions[binding])):
                return binding, None  # never read off a NULL-extended row
            return binding, table.column_index(ref.name)
        owners = [binding for binding, table in self.tables.items()
                  if table.has_column(ref.name)]
        if not owners:
            raise SqlExecutionError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise SqlExecutionError(f"ambiguous column {ref.name!r}")
        return owners[0], self.tables[owners[0]].column_index(ref.name)

    def values(self, binding: str, index: int | None) -> list:
        """One column of one binding, gathered for every tuple."""
        if index is None:
            return [None] * self.count
        data = self.tables[binding].column_data(index)
        positions = self.positions[binding]
        if binding not in self.nullable:
            return data.gather(positions)
        present = iter(data.gather([p for p in positions if p is not None]))
        return [None if p is None else next(present) for p in positions]

    def column(self, ref: ColumnRef) -> list:
        return self.values(*self.resolve(ref))

    def env(self, i: int) -> _Env:
        """Tuple ``i`` as the row engine sees it (fallback paths only)."""
        return _Env({
            binding: (table, None if self.positions[binding][i] is None
                      else table.row_at(self.positions[binding][i]))
            for binding, table in self.tables.items()})


# ---------------------------------------------------------------------------
# Vectorized predicate evaluation
# ---------------------------------------------------------------------------

def _scalar_batch(scalar, frame: _Frame) -> list:
    if isinstance(scalar, LiteralValue):
        return [scalar.value] * frame.count
    if isinstance(scalar, ColumnRef):
        return frame.column(scalar)
    raise SqlExecutionError(f"unsupported scalar {scalar!r}")


def _compare_batch(condition: Comparison, frame: _Frame) -> list[bool]:
    left, right = condition.left, condition.right
    if condition.operator == "LIKE":
        values = _scalar_batch(left, frame)
        if isinstance(right, LiteralValue):
            if right.value is None:
                return [False] * frame.count
            regex = like_to_regex(str(right.value))
            return [v is not None and regex.match(str(v)) is not None
                    for v in values]
        return [lv is not None and rv is not None
                and like_to_regex(str(rv)).match(str(lv)) is not None
                for lv, rv in zip(values, _scalar_batch(right, frame))]
    symbol = condition.operator
    if isinstance(left, LiteralValue):  # 3 < c  ->  c > 3
        left, right, symbol = right, left, _MIRRORED[symbol]
    compare = _COMPARE[symbol]
    values = _scalar_batch(left, frame)
    if isinstance(right, LiteralValue):
        constant = right.value
        if constant is None:
            return [False] * frame.count
        return [v is not None and compare(v, constant) for v in values]
    return [lv is not None and rv is not None and compare(lv, rv)
            for lv, rv in zip(values, _scalar_batch(right, frame))]


def _eval_batch(condition, frame: _Frame) -> list[bool]:
    """Boolean mask for ``condition`` over one batch of tuples (eager:
    both sides of AND / OR are evaluated for every tuple)."""
    if isinstance(condition, BooleanOp):
        left = _eval_batch(condition.left, frame)
        right = _eval_batch(condition.right, frame)
        if condition.operator == "AND":
            return [a and b for a, b in zip(left, right)]
        return [a or b for a, b in zip(left, right)]
    if isinstance(condition, Not):
        return [not m for m in _eval_batch(condition.operand, frame)]
    if isinstance(condition, IsNull):
        values = _scalar_batch(condition.operand, frame)
        if condition.negated:
            return [v is not None for v in values]
        return [v is None for v in values]
    if isinstance(condition, InList):
        values = _scalar_batch(condition.operand, frame)
        if all(isinstance(option, LiteralValue)
               for option in condition.options):
            options = [option.value for option in condition.options]
            if condition.negated:
                return [v not in options for v in values]
            return [v in options for v in values]
        option_columns = [_scalar_batch(option, frame)
                          for option in condition.options]
        return [(value in [column[i] for column in option_columns])
                != condition.negated
                for i, value in enumerate(values)]
    if isinstance(condition, Comparison):
        return _compare_batch(condition, frame)
    raise SqlExecutionError(f"unsupported condition {condition!r}")


def _mask(condition, frame: _Frame, *, rowwise: bool = True) -> list[bool]:
    """``condition`` over every tuple of ``frame``, a batch at a time.

    Eager evaluation compares a superset of what the row engine's
    short-circuit evaluation compares, so a batch that raises nothing
    is exact; one that raises re-runs row-at-a-time in the oracle's
    order, which either reproduces the oracle's error or shows that the
    offending comparison was never reached.  ``rowwise=False`` lets the
    error escape instead (pushdown, whose oracle order is elsewhere)."""
    mask: list[bool] = []
    for batch in frame.batches():
        try:
            mask += _eval_batch(condition, batch)
        except (TypeError, SqlExecutionError):
            if not rowwise:
                raise
            mask += [_eval_condition(condition, batch.env(i))
                     for i in range(batch.count)]
    return mask


# ---------------------------------------------------------------------------
# Scan, pushdown, join
# ---------------------------------------------------------------------------

def _seed(table, binding: str, where) -> tuple[str, object] | None:
    """``(column, value)`` when ``where``'s leading top-level AND
    conjunct is ``col = literal`` over ``binding``'s ``table`` with a
    non-NULL literal, else None."""
    while isinstance(where, BooleanOp) and where.operator == "AND":
        where = where.left
    if not isinstance(where, Comparison) or where.operator != "=":
        return None
    ref, literal = where.left, where.right
    if isinstance(ref, LiteralValue):
        ref, literal = literal, ref
    if (not isinstance(ref, ColumnRef) or not isinstance(literal, LiteralValue)
            or literal.value is None
            or (ref.table is not None and ref.table.lower() != binding)
            or not table.has_column(ref.name)):
        return None
    return ref.name, literal.value


def _scan(table, binding: str, where) -> tuple[_Frame, PlanReport]:
    """The base table's frame: every position, or, when ``where`` may
    seed (:func:`_seed`), the positions the column's hash index files
    under the literal — the index is built on first use."""
    hit = _seed(table, binding, where)
    candidates = (range(len(table)) if hit is None
                  else list(table.create_index(hit[0]).get(hit[1], ())))
    scanned = len(candidates)
    batches = (scanned + BATCH_SIZE - 1) // BATCH_SIZE
    report = PlanReport(engine="columnar", table=table.name,
                        rows_total=len(table), rows_scanned=scanned,
                        batches=batches)
    detail = table.name if hit is None else f"{table.name} (index seed)"
    report.operators.append(OperatorStats(
        "scan", f"{detail} batches={batches}", rows_out=scanned))
    return _Frame({binding: table}, {binding: candidates}, frozenset(),
                  scanned), report


def _filtered(frame: _Frame, condition, report: PlanReport, *,
              rowwise: bool = True) -> _Frame:
    kept = frame.filter(_mask(condition, frame, rowwise=rowwise))
    report.operators.append(OperatorStats(
        "filter", render_condition(condition),
        rows_in=frame.count, rows_out=kept.count))
    return kept


def _conjuncts(condition) -> list:
    """Top-level AND operands in the order the row engine evaluates them."""
    if isinstance(condition, BooleanOp) and condition.operator == "AND":
        return _conjuncts(condition.left) + _conjuncts(condition.right)
    return [condition]


def _conjoin(conjuncts: list):
    """The inverse of :func:`_conjuncts`; None for no conjuncts."""
    return (reduce(partial(BooleanOp, "AND"), conjuncts)
            if conjuncts else None)


def _refs(node):
    """Every ColumnRef under a condition or scalar."""
    if isinstance(node, ColumnRef):
        yield node
    elif isinstance(node, (BooleanOp, Comparison)):
        yield from _refs(node.left)
        yield from _refs(node.right)
    elif isinstance(node, (Not, IsNull)):
        yield from _refs(node.operand)
    elif isinstance(node, InList):
        for child in (node.operand, *node.options):
            yield from _refs(child)


def _owner(scope: _Frame, ref: ColumnRef) -> str | None:
    """The one binding ``ref`` reads, or None where the row engine's
    lookup would raise (unknown, ambiguous, missing column)."""
    try:
        return scope.resolve(ref)[0]
    except SqlExecutionError:
        return None


def _split_pushdown(database, select: Select, table, base: str):
    """``(pushed, rest)``: the leading WHERE conjuncts that read the base
    ``table`` (bound as ``base``) only, and the remainder; ``pushed`` is
    None unless every join is an equi-join over distinct bindings whose
    keys resolve — then no join can raise, and skipping base rows early
    is unobservable."""
    scope = _Frame({base: table}, {base: ()}, frozenset(), 0)
    for join in select.joins:
        binding = join.table.binding.lower()
        if binding in scope.tables or not database.has_table(join.table.name):
            return None, select.where
        join_table = database.require_table(join.table.name)
        equality = _join_equality(join.condition, binding, join_table)
        if (equality is None or _owner(scope, equality[0]) is None
                or not join_table.has_column(equality[1])):
            return None, select.where
        scope = scope.bind(binding, join_table, (), False)
    conjuncts = _conjuncts(select.where)
    split = 0
    while split < len(conjuncts) and all(
            _owner(scope, ref) == base for ref in _refs(conjuncts[split])):
        split += 1
    return _conjoin(conjuncts[:split]), _conjoin(conjuncts[split:])


def _join(frame: _Frame, join, join_table, report: PlanReport) -> _Frame:
    """Append ``join_table``'s position vector: hash build + probe for
    ``outer.col = inner.col``, else a batched mask over the position
    cross product.  Output order is the row engine's: outer-major, inner
    positions ascending."""
    binding = join.table.binding.lower()
    equality = _join_equality(join.condition, binding, join_table)
    if equality is not None:
        outer_ref, inner_column = equality
        indexed = join_table.has_index(inner_column)
        buckets = join_table.key_positions(inner_column)
        keys = frame.column(outer_ref) if frame.count else ()
        # SQL: NULL = NULL is not a match
        matches = (None if key is None else buckets.get(key) for key in keys)
    else:
        indexed = False
        matches = _loop_matches(frame, join, join_table, binding)
    take: list[int] = []
    inner: list[int | None] = []
    left = join.kind == "LEFT"
    unmatched = False
    for i, found in enumerate(matches):
        if found:
            take.extend([i] * len(found))
            inner.extend(found)
        elif left:
            take.append(i)
            inner.append(None)
            unmatched = True
    joined = frame.take(take).bind(binding, join_table, inner, unmatched)
    if not indexed:
        report.rows_scanned += len(join_table)
    report.operators.append(OperatorStats(
        "hash_join" if equality is not None else "loop_join",
        f"{join_table.name} ({join.kind}{', index' if indexed else ''}) "
        f"on {render_condition(join.condition)}",
        rows_in=frame.count, rows_out=joined.count))
    return joined


def _loop_matches(frame: _Frame, join, join_table, binding: str):
    """Per outer tuple, the inner positions passing a non-equi ON: the
    condition runs as a mask over ~``BATCH_SIZE`` (outer, inner) pairs."""
    inner = range(len(join_table))
    if not inner:
        yield from [None] * frame.count
        return
    step = max(1, BATCH_SIZE // len(inner))
    for start in range(0, frame.count, step):
        outer = range(start, min(start + step, frame.count))
        pairs = frame.take([i for i in outer for _ in inner]).bind(
            binding, join_table, list(inner) * len(outer), False)
        mask = _mask(join.condition, pairs)
        for offset in range(0, len(mask), len(inner)):
            yield list(compress(inner, mask[offset:offset + len(inner)]))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def scan_key(select: Select) -> str:
    """What :func:`scan_frame` depends on — two SELECTs with equal keys
    scan the same frame.  Text, not the AST nodes themselves: ``1``,
    ``1.0`` and ``TRUE`` are equal as Python values but not as SQL."""
    return repr((select.table, select.joins, select.where))


def execute_columnar(database, select: Select
                     ) -> tuple[ResultSet, PlanReport]:
    """Run one SELECT through the vectorized engine; returns the result
    plus the executed plan."""
    frame, report = scan_frame(database, select)
    names, columns = project(select, frame, report.operators)
    return ResultSet(names, list(zip(*columns))), report


def project(select: Select, frame: _Frame,
            operators: list[OperatorStats]) -> tuple[list[str], list]:
    """What follows the scan — project / distinct / order / limit, or
    group + aggregate — as column names and value columns: it reads
    ``frame``, never changes it, and appends its own operators."""
    if select.group_by or _has_aggregates(select):
        return _grouped(select, frame, operators)
    return _projected(select, frame, operators)


def scan_frame(database, select: Select) -> tuple[_Frame, PlanReport]:
    """Scan + pushdown + joins + WHERE: the part of a SELECT that reads
    the tables, a function of its ``(table, joins, where)`` only (what
    is left is :func:`project`)."""
    table = database.require_table(select.table.name)
    binding = select.table.binding.lower()
    where, pushed = select.where, None
    if select.joins and where is not None:
        pushed, rest = _split_pushdown(database, select, table, binding)
    # a seed skips base rows before any join: only a pushed conjunct may
    frame, report = _scan(table, binding,
                          where if pushed is not None or not select.joins
                          else None)
    if pushed is not None:
        try:
            frame = _filtered(frame, pushed, report, rowwise=False)
            where = rest
        except TypeError:
            pass  # oracle order: join first, then the whole WHERE
    for join in select.joins:
        frame = _join(frame, join,
                      database.require_table(join.table.name), report)
    if where is not None:
        frame = _filtered(frame, where, report)
    return frame, report


def execute_dml(database, statement) -> ResultSet:
    """UPDATE / DELETE: the target positions come from the same scan and
    vector filter as a SELECT's; the table is touched only afterwards."""
    table = database.require_table(statement.table)
    binding = statement.table.lower()
    if isinstance(statement, Update):
        assignments = {table.column_index(name): value
                       for name, value in statement.assignments}
    frame, _report = _scan(table, binding, statement.where)
    if statement.where is not None:
        frame = frame.filter(_mask(statement.where, frame))
    positions = list(frame.positions[binding])
    if isinstance(statement, Update):
        return ResultSet(["updated"],
                         [(table.update_positions(positions, assignments),)])
    return ResultSet(["deleted"], [(table.delete_positions(positions),)])


def _order_label(select: Select) -> str:
    return ", ".join(f"{_render_scalar(item.column)} "
                     f"{'DESC' if item.descending else 'ASC'}"
                     for item in select.order_by)


# ---------------------------------------------------------------------------
# Plain projection path
# ---------------------------------------------------------------------------

def _projected(select: Select, frame: _Frame,
               operators: list[OperatorStats]) -> tuple[list[str], list]:
    names: list[str] = []
    specs: list[tuple] = []  # output column -> (binding, column position)
    for item in select.items:
        expr = item.expression
        if isinstance(expr, Star):
            if frame.count:
                for binding, table in frame.tables.items():
                    for position, name in enumerate(table.column_names()):
                        names.append(name)
                        specs.append((binding, position))
            else:
                # Row-engine quirk preserved: star over an empty result
                # has no rows to introspect and labels itself "*".
                names.append("*")
        elif isinstance(expr, ColumnRef):
            names.append(item.alias or expr.name)
            if frame.count:
                specs.append(frame.resolve(expr))
        else:
            raise SqlExecutionError("aggregate in non-grouped projection path")

    gathered = {spec: frame.values(*spec) for spec in set(specs)}
    columns = [gathered[spec] for spec in specs] or [[] for _ in names]

    if select.distinct:
        seen: set = set()
        kept: list[int] = []
        for i, values in enumerate(zip(*columns)):
            if values not in seen:
                seen.add(values)
                kept.append(i)
        operators.append(OperatorStats(
            "distinct", rows_in=frame.count, rows_out=len(kept)))
        frame = frame.take(kept)
        columns = [[column[i] for i in kept] for column in columns]

    if select.order_by and frame.count:
        order = list(range(frame.count))
        for item in reversed(select.order_by):
            keys = [_sort_key(value) for value in frame.column(item.column)]
            order.sort(key=keys.__getitem__, reverse=item.descending)
        columns = [[column[i] for i in order] for column in columns]
    if select.order_by:
        operators.append(OperatorStats(
            "order_by", _order_label(select), rows_out=frame.count))

    if select.limit is not None:
        columns = [column[: select.limit] for column in columns]
        operators.append(OperatorStats(
            "limit", str(select.limit), rows_out=len(columns[0])))
    operators.append(OperatorStats(
        "project", f"[{', '.join(names)}]", rows_out=len(columns[0])))
    return names, columns


# ---------------------------------------------------------------------------
# Hash-group aggregation path
# ---------------------------------------------------------------------------

def _grouped(select: Select, frame: _Frame,
             operators: list[OperatorStats]) -> tuple[list[str], list]:
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
    operators.append(OperatorStats(
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
        operators.append(OperatorStats(
            "order_by", _order_label(select), rows_out=len(result_rows)))
    if select.limit is not None:
        result_rows = result_rows[: select.limit]
        operators.append(OperatorStats(
            "limit", str(select.limit), rows_out=len(result_rows)))
    return columns, [[row[i] for row in result_rows]
                     for i in range(len(columns))]
