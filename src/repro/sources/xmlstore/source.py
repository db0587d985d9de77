"""XML connector implementing the DataSource protocol.

An extraction rule is an XPath expression — or an XQuery FLWOR expression
(``for $w in //watch where ... return ...``, paper section 2.3.1 step 2)
— optionally prefixed with the document name it applies to
(``doc:catalog.xml //watch/brand``); when the store holds a single
document the prefix may be omitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import ExtractionError
from ...xmlkit import Document, XPath
from ...xmlkit.xpath import StepEvaluator, string_value
from ...xmlkit.xquery import XQuery, is_flwor
from ..base import (ConnectionInfo, DataSource, ExecutionDetails, RuleCache,
                    stable_digest)
from .store import XmlDocumentStore

_DOC_PREFIX = "doc:"


@dataclass
class _RuleSetPlan:
    """A rule set compiled for one pass (a pure function of rule text).

    ``steps`` holds every distinct step prefix of the set's location
    paths once, parents before children: ``(document, parent, evaluate)``
    applies ``evaluate`` to the node-set of step ``parent``, or — a
    *scan* — to the document itself when ``parent`` is None.  A rule's
    ``output`` is the index of the step whose node-set is its answer, or
    the expression itself (FLWOR rules, unions, function calls), which
    is evaluated alone.  ``scans[i]`` numbers the scan rule ``i``
    descends from: rules with equal numbers are the ones whose records
    align by construction."""

    steps: list[tuple[str | None, int | None, StepEvaluator]] = field(
        default_factory=list)
    outputs: list[tuple[str | None, int | XPath | XQuery]] = field(
        default_factory=list)
    scans: list[int] = field(default_factory=list)


class XmlDataSource(DataSource):
    """A registered XML document store behind XPath extraction rules."""

    source_type = "xml"

    def __init__(self, source_id: str, store: XmlDocumentStore, *,
                 default_document: str | None = None,
                 path: str = "memory://xmlstore") -> None:
        super().__init__(source_id)
        self.store = store
        self.default_document = default_document
        self.path = path
        self._compiled = RuleCache()
        self._details = ExecutionDetails()

    def _split(self, rule: str) -> tuple[str | None, str]:
        """``(document name | None, expression)`` of one rule text."""
        rule = rule.strip()
        if not rule.startswith(_DOC_PREFIX):
            return None, rule
        head, _, rest = rule.partition(" ")
        if not rest.strip():
            raise ExtractionError(
                "XPath rule missing after document prefix",
                source_id=self.source_id)
        return head[len(_DOC_PREFIX):], rest.strip()

    @staticmethod
    def _compile(expression: str) -> XPath | XQuery:
        if is_flwor(expression):
            return XQuery.compile(expression)
        return XPath(expression)

    def _plan(self, rules: tuple[str, ...]) -> _RuleSetPlan:
        plan = _RuleSetPlan()
        edges: dict[tuple, int] = {}  # (document, parent, Step) -> step
        roots: list[int] = []  # per step, the scan it descends from
        scans: dict[object, int] = {}  # scan -> its number, in rule order
        for rule in rules:
            document, expression = self._split(rule)
            compiled = self._compiled.get(expression, self._compile)
            path = (compiled.location_steps()
                    if isinstance(compiled, XPath) else None)
            if not path:
                plan.outputs.append((document, compiled))
                plan.scans.append(scans.setdefault(
                    ("alone", len(plan.outputs)), len(scans)))
                continue
            at = None
            for step, evaluate in path:
                edge = (document, at, step)
                if edge not in edges:
                    edges[edge] = len(plan.steps)
                    plan.steps.append((document, at, evaluate))
                    roots.append(len(roots) if at is None else roots[at])
                at = edges[edge]
            plan.outputs.append((document, at))
            plan.scans.append(scans.setdefault(roots[at], len(scans)))
        return plan

    def _document(self, name: str | None) -> Document:
        if name is None:
            name = self.default_document
        if name is None:
            names = self.store.names()
            if len(names) != 1:
                raise ExtractionError(
                    f"XPath rule must name a document (store has "
                    f"{len(names)}): prefix with 'doc:<name> '",
                    source_id=self.source_id)
            name = names[0]
        return self.store.get(name)

    def execute_rules(self, rules: list[str]) -> list[list[str]]:
        """Run a rule set in one pass; ``result[i]`` is exactly
        ``execute_rule(rules[i])``.

        Rules are grouped by document and every distinct step prefix of
        their location paths is evaluated once (eight ``//item/<field>``
        rules walk the tree once, not eight times).  The node-sets live
        in this call only; the plan that says which prefixes exist is
        kept per distinct tuple of rule texts."""
        if not self.connected:
            self.connect()
        self._details.record([])  # a call that raises leaves no digest
        plan: _RuleSetPlan = self._compiled.get(tuple(rules), self._plan)
        node_sets: list[list] = []
        for document, parent, evaluate in plan.steps:
            node_sets.append(evaluate(
                [self._document(document)] if parent is None
                else node_sets[parent]))
        columns: list[list[str]] = []
        for document, output in plan.outputs:
            if isinstance(output, int):
                values = [string_value(node) for node in node_sets[output]]
            elif isinstance(output, XQuery):
                values = output.evaluate(self._document(document))
            else:
                values = output.values(self._document(document))
            columns.append([value.strip() for value in values])
        self._details.record([{"scan": scan} for scan in plan.scans]
                             if len(rules) > 1 else [])
        return columns

    def execute_rule(self, rule: str) -> list[str]:
        """Run an XPath or XQuery rule; one string per selected node."""
        return self.execute_rules([rule])[0]

    def consume_execution_detail(self) -> dict | None:
        """Next one-shot digest of the calling thread's most recent
        batch, in rule order: ``{"scan": n}`` numbers the tree walk the
        rule shared (nothing is left for a single rule)."""
        return self._details.consume()

    def content_fingerprint(self) -> str | None:
        """Hash of every stored document's serialized XML."""
        parts: list[str] = []
        for name in self.store.names():
            parts.append(name)
            parts.append(self.store.export(name))
        return stable_digest(*parts)

    def connection_info(self) -> ConnectionInfo:
        """Registry-persistable connection description."""
        parameters = {"path": self.path, "store": self.store.name}
        if self.default_document is not None:
            parameters["document"] = self.default_document
        return ConnectionInfo(self.source_type, parameters)
