"""Compiler and runner for the WebL subset.

A program is compiled once into nested Python closures — one per AST
node, chosen at compile time from the node's class and operator — and
every run calls them with a fresh :class:`_Run`, the only place a run's
step count and "value of the last assignment" live.  The compiled form
depends on the program text alone: builtins (``GetURL`` bound to a
``fetch`` callable, usually ``SimulatedWeb.fetch``) are looked up in the
run's table when a call executes.

Runs are bounded by a step budget — extraction rules are supposed to be
tiny, so a rule caught in an infinite loop is an authoring error
reported as :class:`~repro.errors.WeblRuntimeError` rather than a hang.
A step is one statement, one expression node or one loop iteration;
each statement charges its nodes in one sum before it runs (the right
operand of ``and`` / ``or`` when it is reached), so a program that
finishes is charged node for node what evaluating it spends.
"""

from __future__ import annotations

import inspect
import math
import operator
from types import FunctionType
from typing import Callable

from ..errors import WeblRuntimeError, WeblSyntaxError
from .ast import (Assign, BinaryOp, BoolLit, Call, Each, Expr, ExprStmt, If,
                  Index, ListLit, Name, NilLit, NumberLit, Program, RegexLit,
                  Return, Stmt, StringLit, UnaryOp, VarDecl, While)
from .builtins import append, make_builtins, stringify
from .parser import parse_webl

_DEFAULT_STEP_BUDGET = 1_000_000

#: Deepest expression tree (operators, calls, indexing, list literals
#: under one statement) that compiles.  A constant, not an option: like
#: ``lexing.MAX_NESTING`` it is sized against the Python stack.  The
#: parser bounds what it recurses into — parentheses, arguments, blocks —
#: not the left-deep chain ``1 + 1 + ... + 1`` it loops over, and a level
#: costs two to three frames to compile and one or two to run: the
#: deepest program both bounds admit compiles in about 340 frames and
#: runs in about 170 of the default 1000.
MAX_EXPRESSION_DEPTH = 100


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        self.value = value


class _Run:
    """What one execution of a program mutates besides its variables."""

    __slots__ = ("builtins", "budget", "steps", "last_assigned")

    def __init__(self, builtins: dict, budget: int) -> None:
        self.builtins = builtins  # name -> (function, fewest, most)
        self.budget = budget
        self.steps = 0
        self.last_assigned = None


#: A compiled expression (returns its value) or statement (returns None).
_Code = Callable[[_Run, dict], object]


class CompiledProgram:
    """A program as closures; immutable, shareable, a function of its text."""

    __slots__ = ("body",)

    def __init__(self, body: _Code) -> None:
        self.body = body


def _exhausted(run: _Run) -> WeblRuntimeError:
    return WeblRuntimeError(
        f"step budget exceeded ({run.budget}); extraction "
        "rule is probably looping")


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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- expressions ---------------------------------------------------------
#
# Each ``_compile_<node>`` returns ``(code, cost)``: the closure, and the
# steps evaluating it spends — one per node, right operands of ``and`` /
# ``or`` excluded (they charge themselves when reached).


def _compile_expression(expr: Expr, depth: int) -> tuple[_Code, int]:
    if depth > MAX_EXPRESSION_DEPTH:
        raise WeblSyntaxError(
            f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels "
            "(MAX_EXPRESSION_DEPTH)")
    return _EXPRESSIONS[type(expr)](expr, depth + 1)


def _compile_literal(expr, depth: int) -> tuple[_Code, int]:
    value = None if isinstance(expr, NilLit) else expr.value
    return lambda run, scope: value, 1


def _compile_name(expr: Name, depth: int) -> tuple[_Code, int]:
    identifier = expr.identifier

    def name(run: _Run, scope: dict):
        try:
            return scope[identifier]
        except KeyError:
            raise WeblRuntimeError(
                f"undefined variable {identifier!r}") from None
    return name, 1


def _compile_list(expr: ListLit, depth: int) -> tuple[_Code, int]:
    compiled = [_compile_expression(item, depth) for item in expr.items]
    items = tuple(code for code, _ in compiled)
    return (lambda run, scope: [item(run, scope) for item in items],
            1 + sum(cost for _, cost in compiled))


def _compile_unary(expr: UnaryOp, depth: int) -> tuple[_Code, int]:
    operand, cost = _compile_expression(expr.operand, depth)
    if expr.operator == "-":
        def negate(run: _Run, scope: dict):
            value = operand(run, scope)
            if not _is_number(value):
                raise WeblRuntimeError("unary '-' expects a number")
            return -value
        return negate, 1 + cost
    return lambda run, scope: not _truthy(operand(run, scope)), 1 + cost


def _numeric(symbol: str, operation) -> Callable[[object, object], object]:
    """``a <symbol> b`` over numbers, with the language's errors."""
    zero = "division by zero" if symbol == "/" else "modulo by zero"

    def apply(a, b):
        if not _is_number(a) or not _is_number(b):
            raise WeblRuntimeError(
                f"operator {symbol!r} expects numbers, got "
                f"{type(a).__name__} and {type(b).__name__}")
        try:
            return operation(a, b)
        except ZeroDivisionError:
            raise WeblRuntimeError(zero) from None
        except OverflowError:  # an int too large to meet a float
            raise WeblRuntimeError(
                f"operator {symbol!r} overflowed") from None
    return apply


_ARITHMETIC = {symbol: _numeric(symbol, operation) for symbol, operation in (
    ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
    ("/", operator.truediv), ("%", operator.mod))}
_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compile_binary(expr: BinaryOp, depth: int) -> tuple[_Code, int]:
    symbol = expr.operator
    left, left_cost = _compile_expression(expr.left, depth)
    right, right_cost = _compile_expression(expr.right, depth)
    if symbol in ("and", "or"):
        stop_on = symbol == "or"  # the truth of a left operand that decides

        def short_circuit(run: _Run, scope: dict):
            value = left(run, scope)
            if _truthy(value) is stop_on:
                return value
            run.steps += right_cost
            if run.steps > run.budget:
                raise _exhausted(run)
            return right(run, scope)
        return short_circuit, 1 + left_cost
    cost = 1 + left_cost + right_cost
    if symbol in _COMPARISONS:
        compare = _COMPARISONS[symbol]

        def comparison(run: _Run, scope: dict):
            a, b = left(run, scope), right(run, scope)
            try:
                return compare(a, b)
            except TypeError:
                raise WeblRuntimeError(
                    f"cannot compare {type(a).__name__} with "
                    f"{type(b).__name__}") from None
            except RecursionError:  # Append(l, l) made a list hold itself
                raise WeblRuntimeError(
                    "cannot compare lists that contain themselves") from None
        return comparison, cost
    apply = _ARITHMETIC[symbol]
    if symbol == "+":
        def add(run: _Run, scope: dict):
            a, b = left(run, scope), right(run, scope)
            if isinstance(a, str) or isinstance(b, str):
                return stringify(a) + stringify(b)
            if isinstance(a, list) and isinstance(b, list):
                return a + b
            return apply(a, b)
        return add, cost
    return lambda run, scope: apply(left(run, scope), right(run, scope)), cost


def _compile_index(expr: Index, depth: int) -> tuple[_Code, int]:
    base, base_cost = _compile_expression(expr.base, depth)
    index, index_cost = _compile_expression(expr.index, depth)

    def subscript(run: _Run, scope: dict):
        container, position = base(run, scope), index(run, scope)
        if not isinstance(container, (list, str)):
            raise WeblRuntimeError(
                f"cannot index {type(container).__name__}")
        if (not isinstance(position, (int, float))
                or isinstance(position, bool)):
            raise WeblRuntimeError("index must be a number")
        try:
            position = int(position)
        except (OverflowError, ValueError):
            pass  # infinity, NaN: out of range, reported as written
        else:
            if 0 <= position < len(container):
                return container[position]
        raise WeblRuntimeError(
            f"index {position} out of range (length {len(container)})")
    return subscript, 1 + base_cost + index_cost


def _bad_call(name: str, count: int, entry) -> WeblRuntimeError:
    if entry is None:
        return WeblRuntimeError(f"unknown function {name!r}")
    _, fewest, most = entry
    expected = (f"{fewest}" if fewest == most else
                f"at least {fewest}" if most == math.inf else
                f"{fewest} to {most}")
    return WeblRuntimeError(
        f"{name} expects {expected} argument(s), got {count}")


def _compile_call(expr: Call, depth: int) -> tuple[_Code, int]:
    name = expr.function
    compiled = [_compile_expression(a, depth) for a in expr.arguments]
    arguments = tuple(code for code, _ in compiled)
    count = len(arguments)
    cost = 1 + sum(cost for _, cost in compiled)
    # The table is the run's, so resolution waits for the call; the
    # argument count is this call site's, so the arity check is static.
    if count == 0:
        def call(run: _Run, scope: dict):
            entry = run.builtins.get(name)
            if entry is None or not entry[1] <= count <= entry[2]:
                raise _bad_call(name, count, entry)
            return entry[0]()
    elif count == 1:
        first, = arguments

        def call(run: _Run, scope: dict):
            entry = run.builtins.get(name)
            if entry is None or not entry[1] <= count <= entry[2]:
                raise _bad_call(name, count, entry)
            return entry[0](first(run, scope))
    elif count == 2:
        first, second = arguments

        def call(run: _Run, scope: dict):
            entry = run.builtins.get(name)
            if entry is None or not entry[1] <= count <= entry[2]:
                raise _bad_call(name, count, entry)
            return entry[0](first(run, scope), second(run, scope))
    else:
        def call(run: _Run, scope: dict):
            entry = run.builtins.get(name)
            if entry is None or not entry[1] <= count <= entry[2]:
                raise _bad_call(name, count, entry)
            return entry[0](*[a(run, scope) for a in arguments])
    return call, cost


_EXPRESSIONS = {
    NumberLit: _compile_literal, StringLit: _compile_literal,
    RegexLit: _compile_literal, BoolLit: _compile_literal,
    NilLit: _compile_literal, Name: _compile_name, ListLit: _compile_list,
    UnaryOp: _compile_unary, BinaryOp: _compile_binary,
    Index: _compile_index, Call: _compile_call,
}


# -- statements ----------------------------------------------------------
#
# Each ``_compile_<statement>`` returns ``(code, cost)`` too: the closure,
# which charges nothing itself, and the steps its block charges before
# running it — the statement plus the nodes of its expression.


def _compile_block(body: tuple[Stmt, ...], entry: int = 0) -> _Code:
    """``body`` as one closure that charges ``entry`` steps for being
    entered (a loop's iteration) and each statement before running it."""
    steps = tuple(_STATEMENTS[type(statement)](statement)
                  for statement in body)

    def block(run: _Run, scope: dict) -> None:
        run.steps += entry
        if run.steps > run.budget:
            raise _exhausted(run)
        for step, cost in steps:
            run.steps += cost
            if run.steps > run.budget:
                raise _exhausted(run)
            step(run, scope)
    return block


def _compile_var(statement: VarDecl) -> tuple[_Code, int]:
    name = statement.name
    value, cost = _compile_expression(statement.value, 1)

    def declare(run: _Run, scope: dict) -> None:
        if name in run.builtins:
            raise WeblRuntimeError(f"cannot shadow builtin {name!r}")
        scope[name] = run.last_assigned = value(run, scope)
    return declare, 1 + cost


def _compile_assign(statement: Assign) -> tuple[_Code, int]:
    name = statement.name
    value, cost = _compile_expression(statement.value, 1)

    def assign(run: _Run, scope: dict) -> None:
        if name not in scope:
            raise WeblRuntimeError(
                f"assignment to undeclared variable {name!r} "
                "(use 'var' first)")
        scope[name] = run.last_assigned = value(run, scope)
    return assign, 1 + cost


def _compile_expression_statement(statement: ExprStmt) -> tuple[_Code, int]:
    expression, cost = _compile_expression(statement.expression, 1)
    return expression, 1 + cost


def _compile_if(statement: If) -> tuple[_Code, int]:
    condition, cost = _compile_expression(statement.condition, 1)
    then_body = _compile_block(statement.then_body)
    else_body = _compile_block(statement.else_body)

    def branch(run: _Run, scope: dict) -> None:
        taken = then_body if _truthy(condition(run, scope)) else else_body
        taken(run, scope)
    return branch, 1 + cost


def _compile_while(statement: While) -> tuple[_Code, int]:
    condition, cost = _compile_expression(statement.condition, 1)
    body = _compile_block(statement.body, entry=1)

    def loop(run: _Run, scope: dict) -> None:
        while True:
            run.steps += cost  # every evaluation of the condition
            if run.steps > run.budget:
                raise _exhausted(run)
            if not _truthy(condition(run, scope)):
                return
            body(run, scope)
    return loop, 1


def _compile_each(statement: Each) -> tuple[_Code, int]:
    variable = statement.variable
    iterable, cost = _compile_expression(statement.iterable, 1)
    body = _compile_block(statement.body, entry=1)
    collect = _compile_collection(statement)

    def each(run: _Run, scope: dict) -> None:
        items = iterable(run, scope)
        if not isinstance(items, list):
            raise WeblRuntimeError(
                f"each expects a list, got {type(items).__name__}")
        if items and collect is not None and collect(run, scope, items):
            return
        for item in items:
            scope[variable] = item
            body(run, scope)
    return each, 1 + cost


def _compile_collection(statement: Each):
    """The collection idiom ``each V in L { X = Append(X, V[k]); }`` as one
    comprehension, or ``None`` for any other loop.

    The returned ``collect(run, scope, items)`` takes the fast path only
    when the interpreted loop could not raise: ``Append`` is the stock
    builtin, ``X`` holds a list that is neither ``items`` nor one of them,
    every item is a list or string longer than ``k``, and every step fits
    the budget.  It then charges, binds and returns what the loop would,
    and answers ``True``; otherwise it changes nothing and answers
    ``False``, and the loop runs as written."""
    variable, body = statement.variable, statement.body
    if len(body) != 1 or not isinstance(body[0], Assign):
        return None
    target_name, call = body[0].name, body[0].value
    if not (isinstance(call, Call) and call.function == "Append"
            and len(call.arguments) == 2):
        return None
    first, second = call.arguments
    if not (isinstance(first, Name) and first.identifier == target_name
            and target_name != variable and isinstance(second, Index)
            and isinstance(second.base, Name)
            and second.base.identifier == variable
            and isinstance(second.index, NumberLit)
            and type(second.index.value) is int and second.index.value >= 0):
        return None
    k = second.index.value
    charge = 1 + _compile_assign(body[0])[1]  # the iteration + the statement

    def collect(run: _Run, scope: dict, items: list) -> bool:
        target = scope.get(target_name)
        entry = run.builtins.get("Append")
        steps = len(items) * charge
        if (entry is None or entry[0] is not append
                or type(target) is not list or target is items
                or run.steps + steps > run.budget):
            return False
        for item in items:
            kind = type(item)
            if (kind is not list and kind is not str) or item is target:
                return False
        try:
            collected = [item[k] for item in items]
        except IndexError:  # an item no longer than k
            return False
        target.extend(collected)
        run.steps += steps
        scope[variable] = items[-1]
        run.last_assigned = target
        return True
    return collect


def _compile_return(statement: Return) -> tuple[_Code, int]:
    if statement.value is None:
        value, cost = (lambda run, scope: None), 0
    else:
        value, cost = _compile_expression(statement.value, 1)

    def leave(run: _Run, scope: dict) -> None:
        raise _ReturnSignal(value(run, scope))
    return leave, 1 + cost


_STATEMENTS = {
    VarDecl: _compile_var, Assign: _compile_assign,
    ExprStmt: _compile_expression_statement, If: _compile_if,
    While: _compile_while, Each: _compile_each, Return: _compile_return,
}


def compile_webl(program: str | Program) -> CompiledProgram:
    """Compile a program (parsing it first if given as text)."""
    if isinstance(program, str):
        program = parse_webl(program)
    return CompiledProgram(_compile_block(program.body))


# -- running -------------------------------------------------------------


def _arity(function) -> tuple[int, float]:
    """The fewest and the most positional arguments ``function`` takes."""
    if type(function) is FunctionType:  # every stock builtin: no inspect
        code = function.__code__
        most = (math.inf if code.co_flags & inspect.CO_VARARGS
                else code.co_argcount)
        return code.co_argcount - len(function.__defaults__ or ()), most
    try:
        parameters = inspect.signature(function).parameters.values()
    except (TypeError, ValueError):  # a C callable that will not say
        return 0, math.inf
    positional = [p for p in parameters if p.kind in (
        p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    most = (math.inf if any(p.kind is p.VAR_POSITIONAL for p in parameters)
            else len(positional))
    return sum(p.default is p.empty for p in positional), most


class WeblInterpreter:
    """Runs WebL programs against a fetch function.

    Holds the builtin table and the step budget, nothing a run writes:
    one interpreter may serve any number of threads, and a builtin may
    re-enter :meth:`run`."""

    def __init__(self, fetch, *, step_budget: int = _DEFAULT_STEP_BUDGET,
                 extra_builtins: dict | None = None) -> None:
        builtins = make_builtins(fetch)
        if extra_builtins:
            builtins.update(extra_builtins)
        self._builtins = {name: (function, *_arity(function))
                          for name, function in builtins.items()}
        self._step_budget = step_budget

    def run(self, program: str | Program | CompiledProgram):
        """Run a program; returns its result value.

        The result is the explicit ``return`` value if one executes, else
        the value of the last ``var``/assignment statement."""
        if not isinstance(program, CompiledProgram):
            program = compile_webl(program)
        run = _Run(self._builtins, self._step_budget)
        scope: dict[str, object] = {}
        try:
            program.body(run, scope)
        except _ReturnSignal as signal:
            return signal.value
        return run.last_assigned


def run_webl(program: str, fetch, **kwargs):
    """Parse and run a WebL program with ``GetURL`` bound to ``fetch``."""
    return WeblInterpreter(fetch, **kwargs).run(program)
