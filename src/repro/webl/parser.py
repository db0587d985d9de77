"""Recursive-descent parser for the WebL subset."""

from __future__ import annotations

from ..errors import WeblSyntaxError
from ..lexing import TokenCursor
from .ast import (Assign, BinaryOp, BoolLit, Call, Each, Expr, ExprStmt, If,
                  Index, ListLit, Name, NilLit, NumberLit, Program, RegexLit,
                  Return, Stmt, StringLit, UnaryOp, VarDecl, While)
from .lexer import WEBL


class _Parser(TokenCursor):
    lexer = WEBL

    # -- program ----------------------------------------------------------

    def parse(self) -> Program:
        body: list[Stmt] = []
        while self.peek() is not None:
            body.append(self.statement())
        return Program(tuple(body))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("lbrace")
        self.descend()
        body: list[Stmt] = []
        while not self.accept("rbrace"):
            if self.peek() is None:
                raise self.error("unterminated block")
            body.append(self.statement())
        self.ascend()
        return tuple(body)

    def statement(self) -> Stmt:
        if self.accept("keyword", "var"):
            name = self.expect("name").value
            self.expect("assign")
            value = self.expression()
            self.expect("semi")
            return VarDecl(name, value)
        if self.accept("keyword", "if"):
            self.expect("lparen")
            condition = self.expression()
            self.expect("rparen")
            then_body = self.block()
            else_body: tuple[Stmt, ...] = ()
            if self.accept("keyword", "else"):
                following = self.peek()
                if following is not None and following.kind == "keyword" \
                        and following.value == "if":
                    self.descend()
                    else_body = (self.statement(),)
                    self.ascend()
                else:
                    else_body = self.block()
            return If(condition, then_body, else_body)
        if self.accept("keyword", "while"):
            self.expect("lparen")
            condition = self.expression()
            self.expect("rparen")
            return While(condition, self.block())
        if self.accept("keyword", "each"):
            variable = self.expect("name").value
            self.expect("keyword", "in")
            iterable = self.expression()
            return Each(variable, iterable, self.block())
        if self.accept("keyword", "return"):
            if self.accept("semi"):
                return Return(None)
            value = self.expression()
            self.expect("semi")
            return Return(value)
        target, following = self.peek(), self.peek(1)
        if (target is not None and target.kind == "name"
                and following is not None and following.kind == "assign"):
            # `x = expr;` is an assignment, not an expression statement.
            name = self.next().value
            self.next()  # '='
            value = self.expression()
            self.expect("semi")
            return Assign(name, value)
        expression = self.expression()
        self.expect("semi")
        return ExprStmt(expression)

    # -- expressions (precedence climbing) ---------------------------------

    def expression(self) -> Expr:
        self.descend()
        left = self.and_expr()
        while self.accept("keyword", "or"):
            left = BinaryOp("or", left, self.and_expr())
        self.ascend()
        return left

    def and_expr(self) -> Expr:
        left = self.comparison()
        while self.accept("keyword", "and"):
            left = BinaryOp("and", left, self.comparison())
        return left

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token is not None and token.kind in ("eq", "ne", "lt", "gt", "le", "ge"):
            return BinaryOp(self.next().value, left, self.additive())
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while operator := self.accept("plus") or self.accept("minus"):
            left = BinaryOp(operator.value, left, self.multiplicative())
        return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while operator := (self.accept("star") or self.accept("slash")
                           or self.accept("percent")):
            left = BinaryOp(operator.value, left, self.unary())
        return left

    def unary(self) -> Expr:
        operator = self.accept("minus") or self.accept("keyword", "not")
        if operator is None:
            return self.postfix()
        self.descend()
        operand = self.unary()
        self.ascend()
        return UnaryOp(operator.value, operand)

    def postfix(self) -> Expr:
        expr = self.primary()
        while self.accept("lbracket"):
            expr = Index(expr, self.expression())
            self.expect("rbracket")
        return expr

    def primary(self) -> Expr:
        token = self.next()
        if token.kind == "number":
            text = token.value
            return NumberLit(float(text) if "." in text
                             else self.integer(token))
        if token.kind == "string":
            return StringLit(token.value)
        if token.kind == "regex":
            return RegexLit(token.value)
        if token.kind == "keyword":
            if token.value == "true":
                return BoolLit(True)
            if token.value == "false":
                return BoolLit(False)
            if token.value == "nil":
                return NilLit()
            raise self.error(
                f"unexpected keyword {token.value!r} in expression", token)
        if token.kind == "lparen":
            inner = self.expression()
            self.expect("rparen")
            return inner
        if token.kind == "lbracket":
            items: list[Expr] = []
            if not self.accept("rbracket"):
                items.append(self.expression())
                while self.accept("comma"):
                    items.append(self.expression())
                self.expect("rbracket")
            return ListLit(tuple(items))
        if token.kind == "name":
            if self.accept("lparen"):
                arguments: list[Expr] = []
                if not self.accept("rparen"):
                    arguments.append(self.expression())
                    while self.accept("comma"):
                        arguments.append(self.expression())
                    self.expect("rparen")
                return Call(token.value, tuple(arguments))
            return Name(token.value)
        raise self.error(f"unexpected token {token.value!r}", token)


def parse_webl(program: str) -> Program:
    """Parse a WebL program into its AST."""
    if not program or not program.strip():
        raise WeblSyntaxError("empty WebL program")
    return _Parser(program).parse()
