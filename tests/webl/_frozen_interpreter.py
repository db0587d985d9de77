"""Frozen reference for WebL evaluation - the differential oracle.

Frozen at PR 23 (release 2.6 -> 2.7).  Lines edited since: none.

This is ``repro/webl/interpreter.py`` exactly as it stood before programs
were compiled to closures: a tree walk, ``_eval`` an ``isinstance``
ladder over the eleven expression classes with a ``_tick()`` per node,
the step count and the last assigned value kept on the interpreter.
Slow on purpose; ``test_compile_differential.py`` runs generated programs
on both and requires the same value or the same error.  Only the four
imports below differ from the original (absolute, now that the file lives
under ``tests/``).  It shares the parser, the AST and the builtin table
with the live interpreter, so a builtin fixed there is fixed here; what
it does not share is what PR 23 fixed in the evaluator itself, which the
differential therefore never generates - an index that is infinite or
NaN (``OverflowError`` / ``ValueError`` here), a call with the wrong
number of arguments (``TypeError``), an expression hundreds of operators
deep (``RecursionError``), and a builtin that re-enters ``run`` on the
same interpreter (the outer run's result is overwritten).

The original docstring:

Tree-walking interpreter for the WebL subset.

The interpreter is handed a ``fetch`` callable (usually
``SimulatedWeb.fetch``) for ``GetURL`` and runs a parsed program with a
bounded step budget — extraction rules are supposed to be tiny, so a rule
caught in an infinite loop is an authoring error reported as
:class:`~repro.errors.WeblRuntimeError` rather than a hang.
"""

from __future__ import annotations

from repro.errors import WeblRuntimeError
from repro.webl.ast import (Assign, BinaryOp, BoolLit, Call, Each, Expr, ExprStmt, If,
                  Index, ListLit, Name, NilLit, NumberLit, Program, RegexLit,
                  Return, Stmt, StringLit, UnaryOp, VarDecl, While)
from repro.webl.builtins import make_builtins
from repro.webl.parser import parse_webl

_DEFAULT_STEP_BUDGET = 1_000_000


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        self.value = value


class WeblInterpreter:
    """Executes WebL programs against a fetch function."""

    def __init__(self, fetch, *, step_budget: int = _DEFAULT_STEP_BUDGET,
                 extra_builtins: dict | None = None) -> None:
        self._builtins = make_builtins(fetch)
        if extra_builtins:
            self._builtins.update(extra_builtins)
        self._step_budget = step_budget

    def run(self, program: str | Program):
        """Run a program; returns its result value.

        The result is the explicit ``return`` value if one executes, else
        the value of the last ``var``/assignment statement."""
        if isinstance(program, str):
            program = parse_webl(program)
        scope: dict[str, object] = {}
        self._steps = 0
        self._last_assigned = None
        try:
            self._exec_block(program.body, scope)
        except _ReturnSignal as signal:
            return signal.value
        return self._last_assigned

    # -- statements --------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._step_budget:
            raise WeblRuntimeError(
                f"step budget exceeded ({self._step_budget}); extraction "
                "rule is probably looping")

    def _exec_block(self, body: tuple[Stmt, ...], scope: dict) -> None:
        for statement in body:
            self._exec(statement, scope)

    def _exec(self, statement: Stmt, scope: dict) -> None:
        self._tick()
        if isinstance(statement, VarDecl):
            if statement.name in self._builtins:
                raise WeblRuntimeError(
                    f"cannot shadow builtin {statement.name!r}")
            value = self._eval(statement.value, scope)
            scope[statement.name] = value
            self._last_assigned = value
        elif isinstance(statement, Assign):
            if statement.name not in scope:
                raise WeblRuntimeError(
                    f"assignment to undeclared variable {statement.name!r} "
                    "(use 'var' first)")
            value = self._eval(statement.value, scope)
            scope[statement.name] = value
            self._last_assigned = value
        elif isinstance(statement, ExprStmt):
            self._eval(statement.expression, scope)
        elif isinstance(statement, If):
            if self._truthy(self._eval(statement.condition, scope)):
                self._exec_block(statement.then_body, scope)
            else:
                self._exec_block(statement.else_body, scope)
        elif isinstance(statement, While):
            while self._truthy(self._eval(statement.condition, scope)):
                self._tick()
                self._exec_block(statement.body, scope)
        elif isinstance(statement, Each):
            iterable = self._eval(statement.iterable, scope)
            if not isinstance(iterable, list):
                raise WeblRuntimeError(
                    f"each expects a list, got {type(iterable).__name__}")
            for item in iterable:
                self._tick()
                scope[statement.variable] = item
                self._exec_block(statement.body, scope)
        elif isinstance(statement, Return):
            value = None if statement.value is None else self._eval(
                statement.value, scope)
            raise _ReturnSignal(value)
        else:
            raise WeblRuntimeError(f"unsupported statement {statement!r}")

    # -- expressions ---------------------------------------------------------

    @staticmethod
    def _truthy(value) -> bool:
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        if isinstance(value, (str, list)):
            return len(value) > 0
        return True

    def _eval(self, expr: Expr, scope: dict):
        self._tick()
        if isinstance(expr, NumberLit):
            return expr.value
        if isinstance(expr, (StringLit, RegexLit)):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, NilLit):
            return None
        if isinstance(expr, Name):
            if expr.identifier in scope:
                return scope[expr.identifier]
            raise WeblRuntimeError(
                f"undefined variable {expr.identifier!r}")
        if isinstance(expr, ListLit):
            return [self._eval(item, scope) for item in expr.items]
        if isinstance(expr, UnaryOp):
            operand = self._eval(expr.operand, scope)
            if expr.operator == "-":
                if not isinstance(operand, (int, float)) or isinstance(operand, bool):
                    raise WeblRuntimeError("unary '-' expects a number")
                return -operand
            return not self._truthy(operand)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, scope)
        if isinstance(expr, Index):
            base = self._eval(expr.base, scope)
            index = self._eval(expr.index, scope)
            if not isinstance(base, (list, str)):
                raise WeblRuntimeError(
                    f"cannot index {type(base).__name__}")
            if not isinstance(index, (int, float)) or isinstance(index, bool):
                raise WeblRuntimeError("index must be a number")
            position = int(index)
            if position < 0 or position >= len(base):
                raise WeblRuntimeError(
                    f"index {position} out of range (length {len(base)})")
            return base[position]
        if isinstance(expr, Call):
            function = self._builtins.get(expr.function)
            if function is None:
                raise WeblRuntimeError(
                    f"unknown function {expr.function!r}")
            arguments = [self._eval(a, scope) for a in expr.arguments]
            return function(*arguments)
        raise WeblRuntimeError(f"unsupported expression {expr!r}")

    def _eval_binary(self, expr: BinaryOp, scope: dict):
        if expr.operator == "and":
            left = self._eval(expr.left, scope)
            if not self._truthy(left):
                return left
            return self._eval(expr.right, scope)
        if expr.operator == "or":
            left = self._eval(expr.left, scope)
            if self._truthy(left):
                return left
            return self._eval(expr.right, scope)
        left = self._eval(expr.left, scope)
        right = self._eval(expr.right, scope)
        operator = expr.operator
        if operator == "+":
            if isinstance(left, str) or isinstance(right, str):
                return self._stringify(left) + self._stringify(right)
            if isinstance(left, list) and isinstance(right, list):
                return left + right
            return self._arith(left, right, operator)
        if operator in ("-", "*", "/", "%"):
            return self._arith(left, right, operator)
        if operator == "==":
            return left == right
        if operator == "!=":
            return left != right
        try:
            if operator == "<":
                return left < right
            if operator == ">":
                return left > right
            if operator == "<=":
                return left <= right
            return left >= right
        except TypeError as exc:
            raise WeblRuntimeError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}") from exc

    @staticmethod
    def _stringify(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return ""
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    @staticmethod
    def _arith(left, right, operator: str):
        if (not isinstance(left, (int, float)) or isinstance(left, bool)
                or not isinstance(right, (int, float))
                or isinstance(right, bool)):
            raise WeblRuntimeError(
                f"operator {operator!r} expects numbers, got "
                f"{type(left).__name__} and {type(right).__name__}")
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            if right == 0:
                raise WeblRuntimeError("division by zero")
            return left / right
        if right == 0:
            raise WeblRuntimeError("modulo by zero")
        return left % right


def run_webl(program: str, fetch, **kwargs):
    """Parse and run a WebL program with ``GetURL`` bound to ``fetch``."""
    return WeblInterpreter(fetch, **kwargs).run(program)
