"""Recursive-descent SQL parser."""

from __future__ import annotations

from ....errors import SqlSyntaxError
from ....lexing import TokenCursor
from .ast import (AddColumn, Aggregate, BooleanOp, ColumnDef, ColumnRef,
                  Comparison, Condition, CreateIndex, CreateTable, Delete,
                  DropTable, InList, Insert, IsNull, LiteralValue, Join, Not,
                  OrderItem, RenameColumn, Scalar, Select, SelectItem, Star,
                  Statement, TableRef, Update)
from .lexer import SQL

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_OPERATORS = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">", "le": "<=",
              "ge": ">="}


class _Parser(TokenCursor):
    lexer = SQL

    def name(self) -> str:
        return self.expect("name").value

    # -- entry point --------------------------------------------------------

    def parse(self) -> Statement:
        token = self.peek()
        if token is None:
            raise self.error("empty statement")
        if token.kind != "keyword":
            raise self.error(f"expected statement keyword, got {token.value!r}")
        dispatch = {
            "SELECT": self.select,
            "INSERT": self.insert,
            "UPDATE": self.update,
            "DELETE": self.delete,
            "CREATE": self.create,
            "DROP": self.drop,
            "ALTER": self.alter,
        }.get(token.value)
        if dispatch is None:
            raise self.error(f"unsupported statement: {token.value}")
        statement = dispatch()
        self.accept("semi")
        if self.peek() is not None:
            raise self.error(f"trailing tokens at {self.peek().value!r}")
        return statement

    # -- SELECT ---------------------------------------------------------

    def select(self) -> Select:
        self.expect("keyword", "SELECT")
        distinct = self.accept("keyword", "DISTINCT") is not None
        items = [self.select_item()]
        while self.accept("comma"):
            items.append(self.select_item())
        self.expect("keyword", "FROM")
        table = self.table_ref()
        joins: list[Join] = []
        while True:
            kind = self.accept("keyword", "JOIN", "INNER", "LEFT")
            if kind is None:
                break
            if kind.value != "JOIN":
                self.expect("keyword", "JOIN")
            join_kind = "LEFT" if kind.value == "LEFT" else "INNER"
            join_table = self.table_ref()
            self.expect("keyword", "ON")
            condition = self.condition()
            joins.append(Join(join_table, join_kind, condition))
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.condition()
        group_by: list[ColumnRef] = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by.append(self.column_ref())
            while self.accept("comma"):
                group_by.append(self.column_ref())
        having = None
        if self.accept("keyword", "HAVING"):
            having = self.condition()
        order_by: list[OrderItem] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by.append(self.order_item())
            while self.accept("comma"):
                order_by.append(self.order_item())
        limit = None
        if self.accept("keyword", "LIMIT"):
            limit = self.integer(self.expect("number"))
        return Select(tuple(items), table, tuple(joins), where,
                      tuple(group_by), having, tuple(order_by), limit,
                      distinct)

    def select_item(self) -> SelectItem:
        if self.accept("star"):
            return SelectItem(Star())
        token, following = self.peek(), self.peek(1)
        if (token is not None and token.kind == "name"
                and token.value.upper() in _AGGREGATES
                and following is not None and following.kind == "lparen"):
            function = self.next().value.upper()
            self.expect("lparen")
            if self.accept("star"):
                argument = None
            else:
                argument = self.column_ref()
            self.expect("rparen")
            alias = self._alias()
            return SelectItem(Aggregate(function, argument, alias), alias)
        return SelectItem(self.column_ref(), self._alias())

    def _alias(self) -> str | None:
        if self.accept("keyword", "AS"):
            return self.name()
        token = self.accept("name")
        return token.value if token is not None else None

    def table_ref(self) -> TableRef:
        return TableRef(self.name(), self._alias())

    def order_item(self) -> OrderItem:
        column = self.column_ref()
        if self.accept("keyword", "DESC"):
            return OrderItem(column, True)
        self.accept("keyword", "ASC")
        return OrderItem(column, False)

    def column_ref(self) -> ColumnRef:
        first = self.name()
        if self.accept("dot"):
            if self.accept("star"):
                raise self.error("qualified star is only valid as t.* in "
                                 "select list (unsupported)")
            second = self.name()
            return ColumnRef(second, first)
        return ColumnRef(first)

    # -- conditions --------------------------------------------------------

    def condition(self) -> Condition:
        self.descend()
        left = self.and_condition()
        while self.chained("keyword", "OR"):
            left = BooleanOp("OR", left, self.and_condition())
        self.ascend()
        return left

    def and_condition(self) -> Condition:
        left = self.not_condition()
        while self.chained("keyword", "AND"):
            left = BooleanOp("AND", left, self.not_condition())
        return left

    def not_condition(self) -> Condition:
        if not self.accept("keyword", "NOT"):
            return self.predicate()
        self.descend()
        operand = self.not_condition()
        self.ascend()
        return Not(operand)

    def predicate(self) -> Condition:
        if self.accept("lparen"):
            inner = self.condition()
            self.expect("rparen")
            return inner
        operand = self.scalar()
        if self.accept("keyword", "IS"):
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            return IsNull(operand, negated)
        negated = self.accept("keyword", "NOT") is not None
        if self.accept("keyword", "IN"):
            self.expect("lparen")
            options = [self.scalar()]
            while self.accept("comma"):
                options.append(self.scalar())
            self.expect("rparen")
            return InList(operand, tuple(options), negated)
        if self.accept("keyword", "LIKE"):
            right = self.scalar()
            comparison: Condition = Comparison("LIKE", operand, right)
            return Not(comparison) if negated else comparison
        if negated:
            raise self.error("expected IN or LIKE after NOT")
        token = self.next()
        operator = _OPERATORS.get(token.kind)
        if operator is None:
            raise self.error(f"expected comparison operator, got {token.value!r}")
        return Comparison(operator, operand, self.scalar())

    def scalar(self) -> Scalar:
        if self.peek() is None:
            raise self.error("expected value")
        token = (self.accept("number") or self.accept("string")
                 or self.accept("keyword", "TRUE", "FALSE", "NULL"))
        if token is None:
            return self.column_ref()
        if token.kind == "number":
            text = token.value
            return LiteralValue(float(text) if "." in text
                                else self.integer(token))
        if token.kind == "string":
            return LiteralValue(token.value)
        return LiteralValue({"TRUE": True, "FALSE": False,
                             "NULL": None}[token.value])

    # -- DML ----------------------------------------------------------------

    def insert(self) -> Insert:
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self.name()
        self.expect("lparen")
        columns = [self.name()]
        while self.accept("comma"):
            columns.append(self.name())
        self.expect("rparen")
        self.expect("keyword", "VALUES")
        rows: list[tuple[object, ...]] = []
        while True:
            self.expect("lparen")
            values = [self.literal_value()]
            while self.accept("comma"):
                values.append(self.literal_value())
            self.expect("rparen")
            if len(values) != len(columns):
                raise self.error(
                    f"INSERT has {len(columns)} columns but {len(values)} values")
            rows.append(tuple(values))
            if not self.accept("comma"):
                break
        return Insert(table, tuple(columns), tuple(rows))

    def literal_value(self) -> object:
        scalar = self.scalar()
        if not isinstance(scalar, LiteralValue):
            raise self.error("expected literal value")
        return scalar.value

    def update(self) -> Update:
        self.expect("keyword", "UPDATE")
        table = self.name()
        self.expect("keyword", "SET")
        assignments: list[tuple[str, object]] = []
        while True:
            column = self.name()
            token = self.next()
            if token.kind != "eq":
                raise self.error(f"expected '=', got {token.value!r}")
            assignments.append((column, self.literal_value()))
            if not self.accept("comma"):
                break
        where = self.condition() if self.accept("keyword", "WHERE") else None
        return Update(table, tuple(assignments), where)

    def delete(self) -> Delete:
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self.name()
        where = self.condition() if self.accept("keyword", "WHERE") else None
        return Delete(table, where)

    # -- DDL ----------------------------------------------------------------

    def create(self) -> Statement:
        self.expect("keyword", "CREATE")
        if self.accept("keyword", "INDEX"):
            self.expect("keyword", "ON")
            table = self.name()
            self.expect("lparen")
            column = self.name()
            self.expect("rparen")
            return CreateIndex(table, column)
        self.expect("keyword", "TABLE")
        table = self.name()
        self.expect("lparen")
        columns = [self.column_def()]
        while self.accept("comma"):
            columns.append(self.column_def())
        self.expect("rparen")
        return CreateTable(table, tuple(columns))

    def column_def(self) -> ColumnDef:
        name = self.name()
        type_token = self.next()
        if type_token.kind not in ("name", "keyword"):
            raise self.error(f"expected column type, got {type_token.value!r}")
        declared = type_token.value
        if self.accept("lparen"):
            self.expect("number")
            self.expect("rparen")
        not_null = False
        if self.accept("keyword", "NOT"):
            self.expect("keyword", "NULL")
            not_null = True
        if self.accept("keyword", "PRIMARY"):
            self.expect("keyword", "KEY")
            not_null = True
        return ColumnDef(name, declared, not_null)

    def drop(self) -> DropTable:
        self.expect("keyword", "DROP")
        self.expect("keyword", "TABLE")
        return DropTable(self.name())

    def alter(self) -> Statement:
        self.expect("keyword", "ALTER")
        self.expect("keyword", "TABLE")
        table = self.name()
        if self.accept("keyword", "RENAME"):
            self.expect("keyword", "COLUMN")
            old = self.name()
            self.expect("keyword", "TO")
            new = self.name()
            return RenameColumn(table, old, new)
        if self.accept("keyword", "ADD"):
            self.accept("keyword", "COLUMN")
            return AddColumn(table, self.column_def())
        raise self.error("expected RENAME COLUMN or ADD COLUMN")


def parse_sql(statement: str) -> Statement:
    """Parse one SQL statement into its AST."""
    if not statement or not statement.strip():
        raise SqlSyntaxError("empty SQL statement")
    return _Parser(statement).parse()
