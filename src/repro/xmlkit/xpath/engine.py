"""Evaluation engine for the XPath subset.

Values in this engine are one of: a node-set (``list`` of Element / Text /
attribute-value strings, in document order), a ``str``, a ``float`` or a
``bool`` — the four XPath 1.0 value types.  Attribute steps yield plain
strings (the attribute values), which is what extraction rules consume;
a string has no node identity, so wherever node-sets are de-duplicated
an attribute value is identified by its owner element instead.

Location steps are not interpreted: ``XPath.__init__`` chooses each
step's evaluator from its node test, once, and evaluating a path is
calling them in turn.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from ...errors import XPathError
from ..dom import Document, Element, Text
from .ast import (AttributeTest, BooleanOp, Comparison, Expr, FunctionCall,
                  LocationPath, NameTest, NumberLiteral, ParentTest, SelfTest,
                  Step, StringLiteral, TextTest, Union_)
from .parser import parse_xpath

#: One compiled location step: context node-set -> selected node-set.
StepEvaluator = Callable[[list], list]


def string_value(item) -> str:
    """The XPath string-value of one node-set item."""
    if isinstance(item, Element):
        return item.text_content()
    if isinstance(item, Text):
        return item.value
    return str(item)


def _to_string(value) -> str:
    if isinstance(value, list):
        return string_value(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):  # XPath: "NaN", "Infinity"
            return "NaN" if value != value else str(value).replace(
                "inf", "Infinity")
        return str(int(value)) if value == int(value) else str(value)
    return str(value)


def _to_number(value) -> float:
    text = _to_string(value).strip()
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _round(value: float) -> float:
    """XPath ``round()``: half towards +infinity; NaN and the infinities
    pass through."""
    return float(math.floor(value + 0.5)) if math.isfinite(value) else value


def _to_bool(value) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, float):
        return value != 0 and value == value  # non-zero, not NaN
    return bool(value)


class _Context:
    __slots__ = ("node", "position", "size")

    def __init__(self, node, position: int, size: int) -> None:
        self.node = node
        self.position = position  # 1-based, per XPath
        self.size = size


class XPath:
    """A compiled XPath expression."""

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self._ast = parse_xpath(expression)
        #: id(LocationPath) -> its steps' evaluators.  Keyed by identity
        #: (hashing a path is a deep walk); ``_ast`` keeps the ids alive.
        self._paths: dict[int, tuple[StepEvaluator, ...]] = {}
        self._compile(self._ast)

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"

    def __reduce__(self):
        """Pickle as the expression text: evaluators are closures."""
        return type(self), (self.expression,)

    # -- public API -----------------------------------------------------

    def select(self, root: Document | Element) -> list:
        """Evaluate and return a node-set (list), coercing scalars to a list."""
        result = self.evaluate(root)
        if isinstance(result, list):
            return result
        return [result]

    def evaluate(self, root: Document | Element):
        """Evaluate and return the raw XPath value."""
        return self._eval(self._ast, _Context(root, 1, 1))

    def values(self, root: Document | Element) -> list[str]:
        """String values of the selected node-set."""
        return [string_value(item) for item in self.select(root)]

    def first(self, root: Document | Element, default: str | None = None) -> str | None:
        """String value of the first selected node, or ``default``."""
        values = self.values(root)
        return values[0] if values else default

    # -- evaluation -----------------------------------------------------

    def _eval(self, expr: Expr, context: _Context):
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, LocationPath):
            return self._eval_path(expr, context)
        if isinstance(expr, Comparison):
            return self._eval_comparison(expr, context)
        if isinstance(expr, BooleanOp):
            left = _to_bool(self._eval(expr.left, context))
            if expr.operator == "and":
                return left and _to_bool(self._eval(expr.right, context))
            return left or _to_bool(self._eval(expr.right, context))
        if isinstance(expr, Union_):
            left = self._eval(expr.left, context)
            right = self._eval(expr.right, context)
            if not isinstance(left, list) or not isinstance(right, list):
                raise XPathError("union operands must be node-sets")
            merged = list(left)
            seen = {id(item) for item in left}
            for item in right:
                # attribute values have no identity to de-duplicate by
                if isinstance(item, str) or id(item) not in seen:
                    merged.append(item)
            return merged
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, context)
        raise XPathError(f"unsupported expression node: {expr!r}")

    def _eval_comparison(self, expr: Comparison, context: _Context):
        left = self._eval(expr.left, context)
        right = self._eval(expr.right, context)

        def compare(a, b) -> bool:
            if expr.operator in ("=", "!="):
                # Numeric comparison when either side is numeric.
                if isinstance(a, float) or isinstance(b, float):
                    equal = _to_number(a) == _to_number(b)
                else:
                    equal = _to_string(a) == _to_string(b)
                return equal if expr.operator == "=" else not equal
            na, nb = _to_number(a), _to_number(b)
            if expr.operator == "<":
                return na < nb
            if expr.operator == ">":
                return na > nb
            if expr.operator == "<=":
                return na <= nb
            return na >= nb

        # Node-set comparisons are existential in XPath 1.0.
        left_items = left if isinstance(left, list) else [left]
        right_items = right if isinstance(right, list) else [right]
        for a in left_items:
            a_value = string_value(a) if isinstance(left, list) else a
            for b in right_items:
                b_value = string_value(b) if isinstance(right, list) else b
                if compare(a_value, b_value):
                    return True
        return False

    def _eval_function(self, expr: FunctionCall, context: _Context):
        name = expr.name
        args = [self._eval(a, context) for a in expr.arguments]
        if name == "position":
            return float(context.position)
        if name == "last":
            return float(context.size)
        if name == "count":
            if not isinstance(args[0], list):
                raise XPathError("count() requires a node-set argument")
            return float(len(args[0]))
        if name == "contains":
            return _to_string(args[0]).find(_to_string(args[1])) >= 0
        if name == "starts-with":
            return _to_string(args[0]).startswith(_to_string(args[1]))
        if name == "normalize-space":
            source = args[0] if args else [context.node]
            return " ".join(_to_string(source).split())
        if name == "string":
            return _to_string(args[0] if args else [context.node])
        if name == "number":
            return _to_number(args[0] if args else [context.node])
        if name == "name":
            target = args[0][0] if args and isinstance(args[0], list) and args[0] \
                else context.node
            return target.name if isinstance(target, Element) else ""
        if name == "not":
            return not _to_bool(args[0])
        if name == "concat":
            return "".join(_to_string(a) for a in args)
        if name == "string-length":
            return float(len(_to_string(args[0] if args else [context.node])))
        if name == "substring":
            # XPath 1.0 section 4.2: the characters at 1-based positions
            # p with round(start) <= p < round(start) + round(length);
            # every comparison with NaN is false.
            text = _to_string(args[0])
            first = _round(_to_number(args[1]))
            last = (first + _round(_to_number(args[2])) if len(args) > 2
                    else math.inf)
            low, high = max(first, 1.0), min(last, len(text) + 1.0)
            return text[int(low) - 1:int(high) - 1] if low < high else ""
        raise XPathError(f"unsupported function: {name}()")

    # -- location path machinery ----------------------------------------

    def _compile(self, expr: Expr) -> None:
        """Choose every location step's evaluator, once (``__init__``)."""
        if isinstance(expr, LocationPath):
            for step in expr.steps:
                for predicate in step.predicates:
                    self._compile(predicate)
            self._paths[id(expr)] = tuple(
                self._step_evaluator(step) for step in expr.steps)
        elif isinstance(expr, (Comparison, BooleanOp, Union_)):
            self._compile(expr.left)
            self._compile(expr.right)
        elif isinstance(expr, FunctionCall):
            for argument in expr.arguments:
                self._compile(argument)

    def location_steps(self) -> tuple[tuple[Step, StepEvaluator], ...] | None:
        """``(step, evaluator)`` pairs when the whole expression is one
        location path, else None.

        An evaluator maps a node-set to the step's node-set and depends
        on nothing else, so expressions whose steps start equal (``Step``
        compares by value) may share the node-set of that prefix; the
        walk starts from ``[root]``, as :meth:`evaluate` does."""
        if not isinstance(self._ast, LocationPath):
            return None
        return tuple(zip(self._ast.steps, self._paths[id(self._ast)]))

    def _eval_path(self, path: LocationPath, context: _Context) -> list:
        node = context.node
        if path.absolute:
            while not isinstance(node, Document):
                parent = getattr(node, "parent", None)
                if parent is None:
                    break
                node = parent
        current = [node]
        for evaluate in self._paths[id(path)]:
            current = evaluate(current)
        return current

    def _step_evaluator(self, step: Step) -> StepEvaluator:
        """The step's ``node-set -> node-set`` function.

        Scopes are the context nodes (``/``) or each one's
        descendants-or-self in document order (``//``); the node test
        produces each scope's candidates and predicates — positional
        ones in particular — filter them *per scope*, per XPath 1.0:
        ``//item[1]`` is the first ``item`` child of every parent, not
        the first match overall.  A predicate-free name step, the shape
        extraction rules are made of, is the same thing as one loop."""
        test = step.test
        if isinstance(test, NameTest) and not step.predicates:
            name = None if test.name == "*" else test.name
            return partial(_descendant_elements if step.descendant
                           else _child_elements, name)
        produce = _PRODUCERS[type(test)](test)
        # An attribute value is a plain ``str`` with no identity of its
        # own: its owner (the scope) stands in for it, and once it is
        # itself the context (``//i/@k/.``) there is nothing to repeat.
        by_owner = isinstance(test, AttributeTest)

        def evaluate(nodes: list) -> list:
            results: list = []
            seen: set[int] = set()
            for node in nodes:
                for scope in (_descendants_or_self(node) if step.descendant
                              else (node,)):
                    if by_owner:
                        if id(scope) in seen:
                            continue
                        seen.add(id(scope))
                    candidates = produce(scope)
                    for predicate in step.predicates:
                        candidates = self._retain(predicate, candidates)
                    if by_owner or scope.__class__ is str:
                        results += candidates
                        continue
                    for candidate in candidates:
                        if id(candidate) not in seen:
                            seen.add(id(candidate))
                            results.append(candidate)
            return results

        return evaluate

    def _retain(self, predicate: Expr, candidates: list) -> list:
        """The candidates one predicate keeps; a number ``n`` means
        ``position() = n``, so NaN and fractions keep nothing."""
        retained: list = []
        size = len(candidates)
        for position, candidate in enumerate(candidates, start=1):
            value = self._eval(predicate, _Context(candidate, position, size))
            if isinstance(value, float):
                if position == value:
                    retained.append(candidate)
            elif _to_bool(value):
                retained.append(candidate)
        return retained


def _children(node) -> list | tuple:
    """Child nodes of any context item: a document's is its root;
    text nodes and attribute values have none."""
    if node.__class__ is Element:
        return node.children
    if node.__class__ is Document:
        return (node.root,)
    return ()


def _descendants_or_self(node):
    """``node`` and its element descendants, in document order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for child in reversed(_children(node)):
            if child.__class__ is Element:
                stack.append(child)


def _child_elements(name: str | None, nodes: list) -> list:
    """``/name``: the element children (named ``name``, or all of them)
    of every context node.  No node-set holds a node twice and a child
    has one parent, so there is nothing to de-duplicate."""
    return [child for node in nodes for child in _children(node)
            if child.__class__ is Element
            and (name is None or child.name == name)]


def _descendant_elements(name: str | None, nodes: list) -> list:
    """``//name``: per scope of :func:`_descendants_or_self`, its
    matching element children — one stack walk with one pass over each
    node's children (no per-node list, no generator)."""
    results: list = []
    stack = nodes[::-1]
    visited: set[int] | None = None if len(nodes) == 1 else set()
    while stack:
        node = stack.pop()
        if visited is not None:
            # Context nodes may nest: a subtree is walked once.
            if id(node) in visited:
                continue
            visited.add(id(node))
        # Right to left, so the stack pops in document order; a scope's
        # matches are therefore found reversed and put right after.
        found = len(results)
        for child in reversed(_children(node)):
            if child.__class__ is Element:
                below = child.children
                # a leaf (nothing, or one text node) is an empty scope
                if len(below) > 1 or (below
                                      and below[0].__class__ is Element):
                    stack.append(child)
                if name is None or child.name == name:
                    results.append(child)
        if len(results) - found > 1:
            results[found:] = results[found:][::-1]
    return results


def _named_children(test: NameTest):
    name = None if test.name == "*" else test.name
    return lambda scope: _child_elements(name, [scope])


def _attributes(test: AttributeTest):
    def produce(scope) -> list:
        if scope.__class__ is not Element:
            return []
        if test.name == "*":
            return list(scope.attributes.values())
        return ([scope.attributes[test.name]]
                if test.name in scope.attributes else [])
    return produce


def _text_children(_test: TextTest):
    return lambda scope: [child for child in _children(scope)
                          if child.__class__ is Text]


def _self(_test: SelfTest):
    return lambda scope: [scope]


def _parent(_test: ParentTest):
    def produce(scope) -> list:
        parent = getattr(scope, "parent", None)
        return [parent] if parent is not None else []
    return produce


#: node test type -> factory of its ``scope -> candidates`` producer
_PRODUCERS = {NameTest: _named_children, AttributeTest: _attributes,
              TextTest: _text_children, SelfTest: _self, ParentTest: _parent}


def xpath_select(root: Document | Element, expression: str) -> list:
    """One-shot convenience: compile and select."""
    return XPath(expression).select(root)
