"""S2SQL parser.

Grammar, as given in paper section 2.5::

    query     := SELECT class [WHERE condition (AND condition)*]
    condition := attribute operator constraint
    operator  := = | != | <> | < | > | <= | >= | LIKE | CONTAINS
    constraint:= string | number | TRUE | FALSE

FROM is *rejected with a dedicated message*: "the FROM and related
operators have no use in S2SQL and are thus not supported".
"""

from __future__ import annotations

from ...errors import S2sqlSyntaxError
from ...lexing import TokenCursor
from .ast import Condition, S2sqlQuery
from .lexer import S2SQL

_OPERATORS = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">", "le": "<=",
              "ge": ">="}


class _Parser(TokenCursor):
    lexer = S2SQL

    def parse(self) -> S2sqlQuery:
        self.expect("keyword", "SELECT")
        class_token = self.next()
        if class_token.kind not in ("name", "path"):
            raise self.error(
                f"expected ontology class name, got {class_token.value!r}",
                class_token)
        conditions: list[Condition] = []
        from_token = self.accept("keyword", "FROM")
        if from_token is not None:
            raise self.error(
                "FROM is not supported: S2SQL queries are location-"
                "transparent (data location is resolved by the mapping "
                "module)", from_token)
        if self.peek() is not None:
            self.expect("keyword", "WHERE")
            conditions.append(self.condition())
            while self.peek() is not None:
                self.expect("keyword", "AND")
                conditions.append(self.condition())
        return S2sqlQuery(class_token.value, tuple(conditions))

    def condition(self) -> Condition:
        attr_token = self.next()
        if attr_token.kind not in ("name", "path"):
            raise self.error(
                f"expected attribute, got {attr_token.value!r}", attr_token)
        op_token = self.next()
        if op_token.kind in _OPERATORS:
            operator = _OPERATORS[op_token.kind]
        elif op_token.kind == "keyword" and op_token.value in ("LIKE",
                                                               "CONTAINS"):
            operator = op_token.value
        else:
            raise self.error(
                f"expected comparison operator, got {op_token.value!r}",
                op_token)
        value_token = self.next()
        value: object
        if value_token.kind == "string":
            value = value_token.value
        elif value_token.kind == "number":
            text = value_token.value
            value = float(text) if "." in text else self.integer(value_token)
        elif value_token.kind == "keyword" and value_token.value in ("TRUE",
                                                                     "FALSE"):
            value = value_token.value == "TRUE"
        elif value_token.kind == "name":
            # Unquoted bare word — accept as string for author convenience.
            value = value_token.value
        else:
            raise self.error(
                f"expected constraint value, got {value_token.value!r}",
                value_token)
        return Condition(attr_token.value, operator, value)


def parse_s2sql(query: str) -> S2sqlQuery:
    """Parse an S2SQL query string."""
    if not query or not query.strip():
        raise S2sqlSyntaxError("empty S2SQL query")
    return _Parser(query).parse()
