"""Frozen reference for XPath evaluation — the differential oracle.

This is ``repro/xmlkit/xpath/engine.py`` exactly as it stood before the
step evaluators were compiled per node test (release 2.3): one
interpretive ``_eval_step`` that expands ``//`` through a recursive
generator and builds an ``element_children()`` list per node, twice.
Slow on purpose; ``test_xpath_differential.py`` compares the compiled
engine against it node-set by node-set, in order.

Edited in two places only, both marked ``FIX``: the two bugs the
compiled engine fixed at the same time, without which the two engines
could not agree —

* ``FIX 1`` attribute values are plain ``str``; de-duplicating them by
  ``id()`` collapsed equal values of *different* elements.  An
  attribute step now de-duplicates by owner element, a union keeps
  every string;
* ``FIX 2`` a numeric predicate ``[n]`` is ``position() = n`` (NaN and
  fractions select nothing, no ``int(NaN)``), and ``substring`` follows
  XPath 1.0 section 4.2 (rounded positions; NaN selects nothing).

It shares the parser and the AST with the live engine — neither changed.
"""

from __future__ import annotations

import math

from repro.errors import XPathError
from repro.xmlkit.dom import Document, Element, Text
from repro.xmlkit.xpath.ast import (AttributeTest, BooleanOp, Comparison,
                                    Expr, FunctionCall, LocationPath,
                                    NameTest, NumberLiteral, ParentTest,
                                    SelfTest, Step, StringLiteral, TextTest,
                                    Union_)
from repro.xmlkit.xpath.parser import parse_xpath


def _string_value(item) -> str:
    if isinstance(item, Element):
        return item.text_content()
    if isinstance(item, Text):
        return item.value
    return str(item)


def _to_string(value) -> str:
    if isinstance(value, list):
        return _string_value(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "NaN"  # XPath: string(NaN) = "NaN"
        return str(int(value)) if value == int(value) else str(value)
    return str(value)


def _to_number(value) -> float:
    text = _to_string(value).strip()
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _round(value: float) -> float:
    """FIX 2: XPath ``round()`` — half towards +infinity; NaN and the
    infinities pass through."""
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

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"

    # -- public API -----------------------------------------------------

    def select(self, root: Document | Element) -> list:
        """Evaluate and return a node-set (list), coercing scalars to a list."""
        result = self.evaluate(root)
        if isinstance(result, list):
            return result
        return [result]

    def evaluate(self, root: Document | Element):
        """Evaluate and return the raw XPath value."""
        if isinstance(root, Document):
            context_node: object = root
        else:
            context_node = root
        context = _Context(context_node, 1, 1)
        return self._eval(self._ast, context)

    def values(self, root: Document | Element) -> list[str]:
        """String values of the selected node-set."""
        return [_string_value(item) for item in self.select(root)]

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
                # FIX 1: attribute values have no identity of their own
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
            a_value = _string_value(a) if isinstance(left, list) else a
            for b in right_items:
                b_value = _string_value(b) if isinstance(right, list) else b
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
            if len(args) != 1 or not isinstance(args[0], list):
                raise XPathError("count() requires one node-set argument")
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
            # FIX 2: XPath 1.0 section 4.2 — the characters at 1-based
            # positions p with round(start) <= p < round(start) +
            # round(length); every comparison with NaN is false
            text = _to_string(args[0])
            first = _round(_to_number(args[1]))
            last = (first + _round(_to_number(args[2])) if len(args) > 2
                    else float("inf"))
            low, high = max(first, 1.0), min(last, len(text) + 1.0)
            return text[int(low) - 1:int(high) - 1] if low < high else ""
        raise XPathError(f"unsupported function: {name}()")

    # -- location path machinery ----------------------------------------

    def _eval_path(self, path: LocationPath, context: _Context) -> list:
        if path.absolute:
            node = context.node
            while True:
                if isinstance(node, Document):
                    start: list = [node]
                    break
                parent = getattr(node, "parent", None)
                if parent is None:
                    start = [node]
                    break
                node = parent
        else:
            start = [context.node]
        current = start
        for step in path.steps:
            current = self._eval_step(step, current)
        return current

    def _eval_step(self, step: Step, nodes: list) -> list:
        """Apply the node test and predicates for every context node.

        Predicates — in particular positional ones — are evaluated
        *per context node*, per XPath 1.0: ``//item[1]`` selects the
        first ``item`` child of every parent, not the first match
        overall."""
        results: list = []
        seen: set = set()
        for node in nodes:
            if step.descendant:
                scopes = list(self._descendants_or_self_scope(step, node))
            else:
                scopes = [node]
            for scope in scopes:
                candidates = self._apply_test_single(step, scope)
                for predicate in step.predicates:
                    retained: list = []
                    size = len(candidates)
                    for position, candidate in enumerate(candidates,
                                                         start=1):
                        value = self._eval(
                            predicate, _Context(candidate, position, size))
                        if isinstance(value, float):
                            if position == value:  # FIX 2: was int(value)
                                retained.append(candidate)
                        elif _to_bool(value):
                            retained.append(candidate)
                    candidates = retained
                for index, candidate in enumerate(candidates):
                    # FIX 1: an attribute value is identified by its
                    # owner element, and has no identity to lose once
                    # it is itself the context (``//i/@k/.``)
                    if not isinstance(candidate, str):
                        key: object = id(candidate)
                    elif isinstance(scope, str):
                        results.append(candidate)
                        continue
                    else:
                        key = (id(scope), index)
                    if key not in seen:
                        seen.add(key)
                        results.append(candidate)
        return results

    def _descendants_or_self_scope(self, step: Step, node):
        """Scopes for a ``//`` step (self + all element descendants)."""
        yield from self._descendants_or_self(node)

    def _apply_test_single(self, step: Step, scope) -> list:
        """Node test against one scope (no descendant expansion here)."""
        test = step.test
        if isinstance(test, SelfTest):
            return [scope]
        if isinstance(test, ParentTest):
            parent = getattr(scope, "parent", None)
            return [parent] if parent is not None else []
        results: list = []
        if isinstance(test, NameTest):
            for child in self._element_children(scope):
                if test.name == "*" or child.name == test.name:
                    results.append(child)
        elif isinstance(test, AttributeTest):
            if isinstance(scope, Element):
                if test.name == "*":
                    results.extend(scope.attributes.values())
                elif test.name in scope.attributes:
                    results.append(scope.attributes[test.name])
        elif isinstance(test, TextTest):
            for child in self._all_children(scope):
                if isinstance(child, Text):
                    results.append(child)
        return results

    @staticmethod
    def _element_children(node) -> list[Element]:
        if isinstance(node, Document):
            return [node.root]
        if isinstance(node, Element):
            return node.element_children()
        return []

    @staticmethod
    def _all_children(node) -> list:
        if isinstance(node, Document):
            return [node.root]
        if isinstance(node, Element):
            return list(node.children)
        return []

    @classmethod
    def _descendants_or_self(cls, node):
        yield node
        for child in cls._element_children(node):
            yield from cls._descendants_or_self(child)


def xpath_select(root: Document | Element, expression: str) -> list:
    """One-shot convenience: compile and select."""
    return XPath(expression).select(root)
