"""Recursive-descent parser for the XPath subset.

Grammar (precedence low to high)::

    expr        := or_expr
    or_expr     := and_expr ("or" and_expr)*
    and_expr    := union_expr ("and" union_expr)*
    union_expr  := cmp_expr ("|" cmp_expr)*
    cmp_expr    := primary (("="|"!="|"<"|">"|"<="|">=") primary)?
    primary     := number | string | function_call | location_path | "(" expr ")"
    location_path := ("/" | "//")? step (("/" | "//") step)*
    step        := ("." | ".." | "@" name | name "(" ")" (text only)
                    | name | "*") predicate*
    predicate   := "[" expr "]"
"""

from __future__ import annotations

from ...errors import XPathError
from ...lexing import TokenCursor
from .ast import (AttributeTest, BooleanOp, Comparison, Expr, FunctionCall,
                  LocationPath, NameTest, NumberLiteral, ParentTest, SelfTest,
                  Step, StringLiteral, TextTest, Union_)
from .lexer import XPATH

#: name -> (fewest, most) arguments, as XPath 1.0 section 4 declares
#: them (``None``: any number).
_FUNCTIONS = {
    "last": (0, 0), "position": (0, 0), "count": (1, 1), "name": (0, 1),
    "string": (0, 1), "concat": (2, None), "starts-with": (2, 2),
    "contains": (2, 2), "substring": (2, 3), "string-length": (0, 1),
    "normalize-space": (0, 1), "not": (1, 1), "number": (0, 1),
}


class _Parser(TokenCursor):
    lexer = XPATH

    # -- expression levels ----------------------------------------------

    def parse(self) -> Expr:
        expr = self.or_expr()
        if self.peek() is not None:
            raise self.error(f"trailing tokens starting at {self.peek().value!r}")
        return expr

    def or_expr(self) -> Expr:
        self.descend()
        left = self.and_expr()
        while self.chained("name", "or"):
            left = BooleanOp("or", left, self.and_expr())
        self.ascend()
        return left

    def and_expr(self) -> Expr:
        left = self.union_expr()
        while self.chained("name", "and"):
            left = BooleanOp("and", left, self.union_expr())
        return left

    def union_expr(self) -> Expr:
        left = self.cmp_expr()
        while self.chained("union"):
            left = Union_(left, self.cmp_expr())
        return left

    def cmp_expr(self) -> Expr:
        left = self.primary()
        token = self.peek()
        if token is not None and token.kind in ("eq", "ne", "lt", "gt", "le", "ge"):
            return Comparison(self.next().value, left, self.primary())
        return left

    def primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of expression")
        if token.kind == "number":
            return NumberLiteral(float(self.next().value))
        if token.kind == "string":
            return StringLiteral(self.next().value)
        if self.accept("lparen"):
            inner = self.or_expr()
            self.expect("rparen")
            return inner
        following = self.peek(1)
        if (token.kind == "name" and token.value in _FUNCTIONS
                and following is not None and following.kind == "lparen"):
            return self.function_call()
        return self.location_path()

    def function_call(self) -> Expr:
        token = self.expect("name")
        self.expect("lparen")
        arguments: list[Expr] = []
        if not self.accept("rparen"):
            arguments.append(self.or_expr())
            while self.accept("comma"):
                arguments.append(self.or_expr())
            self.expect("rparen")
        fewest, most = _FUNCTIONS[token.value]
        if len(arguments) < fewest or (most is not None
                                       and len(arguments) > most):
            takes = (f"{fewest}" if fewest == most else f"{fewest} to {most}"
                     if most is not None else f"at least {fewest}")
            raise self.error(f"{token.value}() takes {takes} arguments, "
                             f"not {len(arguments)}", token)
        return FunctionCall(token.value, tuple(arguments))

    # -- location paths ---------------------------------------------------

    def location_path(self) -> LocationPath:
        absolute = False
        descendant = False
        if self.accept("dslash"):
            absolute = True
            descendant = True
        elif self.accept("slash"):
            absolute = True
        steps = [self.step(descendant)]
        while True:
            if self.accept("dslash"):
                steps.append(self.step(True))
            elif self.accept("slash"):
                steps.append(self.step(False))
            else:
                break
        return LocationPath(absolute, tuple(steps))

    def step(self, descendant: bool) -> Step:
        if self.peek() is None:
            raise self.error("expected location step")
        token = self.next()
        if token.kind == "ddot":
            test: object = ParentTest()
        elif token.kind == "dot":
            test = SelfTest()
        elif token.kind == "at":
            name_token = self.next()
            if name_token.kind not in ("name", "star"):
                raise self.error(f"expected attribute name, got {name_token.value!r}")
            test = AttributeTest(name_token.value)
        elif token.kind == "star":
            test = NameTest("*")
        elif token.kind == "name":
            if token.value == "text" and self.accept("lparen"):
                self.expect("rparen")
                test = TextTest()
            else:
                test = NameTest(token.value)
        else:
            raise self.error(f"expected location step, got {token.value!r}")

        predicates: list[Expr] = []
        while self.accept("lbracket"):
            predicates.append(self.or_expr())
            self.expect("rbracket")
        return Step(test, descendant, tuple(predicates))  # type: ignore[arg-type]


def parse_xpath(expression: str) -> Expr:
    """Parse an XPath expression string into its AST."""
    if not expression or not expression.strip():
        raise XPathError("empty XPath expression")
    return _Parser(expression).parse()
