"""A SPARQL subset over the in-memory graph.

The paper's closing argument is that S2S output "allows data to be shared
and processed by automated tools" — i.e. the OWL documents the middleware
emits are *queryable knowledge*.  This module is that consumer side: a
SPARQL engine supporting the slice B2B post-processing needs::

    PREFIX onto: <http://example.org/s2s/watch#>
    SELECT DISTINCT ?brand ?name
    WHERE {
      ?w rdf:type onto:watch .
      ?w onto:brand ?brand .
      ?w onto:hasProvider ?p .
      ?p onto:name ?name .
      FILTER (?price >= 100 && ?brand != "Casio")
    }
    ORDER BY ?brand LIMIT 10

Supported: ``PREFIX`` declarations (rdf/rdfs/owl/xsd are pre-bound),
``SELECT`` with variable projection or ``*``, ``DISTINCT``, basic graph
patterns (``.``-separated triples, ``a`` for ``rdf:type``), ``FILTER``
with comparisons, ``&&``/``||``/``!``, ``BOUND``, ``REGEX``, ``OPTIONAL``
blocks, ``ORDER BY``/``LIMIT``/``OFFSET``, and ``ASK`` queries.

Evaluation is backtracking join over the indexed triple store: patterns
are reordered greedily by bound-term count so selective patterns run
first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from ..errors import RdfError
from ..lexing import MISMATCH, Lexer, Token, TokenCursor
from .graph import Graph
from .namespace import NamespaceManager
from .terms import IRI, BlankNode, Literal

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Variable, IRI, Literal]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def bound_count(self, bindings: dict) -> int:
        """How many positions are already fixed under ``bindings``."""
        count = 0
        for term in (self.subject, self.predicate, self.object):
            if not isinstance(term, Variable) or term.name in bindings:
                count += 1
        return count


@dataclass(frozen=True, slots=True)
class Comparison:
    operator: str  # = != < > <= >=
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True, slots=True)
class BoolOp:
    operator: str  # && ||
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True, slots=True)
class NotOp:
    operand: "FilterExpr"


@dataclass(frozen=True, slots=True)
class BoundCall:
    variable: Variable


@dataclass(frozen=True, slots=True)
class RegexCall:
    operand: "FilterExpr"
    pattern: re.Pattern[str]  # compiled once, by the parser


FilterExpr = Union[Variable, Literal, IRI, Comparison, BoolOp, NotOp,
                   BoundCall, RegexCall]


@dataclass
class GroupPattern:
    """A basic graph pattern: triples + filters + optional sub-groups."""

    triples: list[TriplePattern] = field(default_factory=list)
    filters: list[FilterExpr] = field(default_factory=list)
    optionals: list["GroupPattern"] = field(default_factory=list)


@dataclass
class SparqlQuery:
    form: str  # SELECT | ASK
    variables: list[Variable]  # empty means *
    distinct: bool
    pattern: GroupPattern
    order_by: list[tuple[Variable, bool]]  # (var, descending)
    limit: int | None
    offset: int


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

def _syntax_error(message: str, query: str, token: Token | None) -> RdfError:
    if token is not None and token.kind == MISMATCH:
        message = f"{message} at offset {token.position}"
    return RdfError(f"SPARQL: {message}")


SPARQL = Lexer(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<dtype>\^\^)
  | (?P<and>&&) | (?P<or>\|\|)
  | (?P<ne>!=) | (?P<le><=) | (?P<ge>>=) | (?P<eq>=) | (?P<lt><) | (?P<gt>>)
  | (?P<not>!)
  | (?P<punct>[{}().,;])
  | (?P<qname>[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-.]*
              |[A-Za-z_][A-Za-z0-9_\-]*:)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*|\*)
    """,
    _syntax_error, unit="query",
    keywords=frozenset({"PREFIX", "SELECT", "ASK", "WHERE", "FILTER",
                        "OPTIONAL", "DISTINCT", "ORDER", "BY", "ASC", "DESC",
                        "LIMIT", "OFFSET", "BOUND", "REGEX", "A", "TRUE",
                        "FALSE"}))

_XSD = "http://www.w3.org/2001/XMLSchema#"
_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


class _Parser(TokenCursor):
    lexer = SPARQL

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.manager = NamespaceManager()

    # -- query ----------------------------------------------------------

    def parse(self) -> SparqlQuery:
        while self.accept("keyword", "PREFIX"):
            qname = self.expect("qname").value
            iri = self.expect("iri").value[1:-1]
            self.manager.bind(qname[:-1] if qname.endswith(":")
                              else qname.split(":", 1)[0], iri,
                              replace=True)
        token = self.next()
        if token.kind != "keyword" or token.value not in ("SELECT", "ASK"):
            raise self.error(f"expected SELECT or ASK, got {token.value!r}")
        form = token.value
        variables: list[Variable] = []
        distinct = False
        if form == "SELECT":
            distinct = self.accept("keyword", "DISTINCT") is not None
            if not self.accept("name", "*"):
                while var := self.accept("var"):
                    variables.append(Variable(var.value[1:]))
                if not variables:
                    token = self.peek()
                    if token is None or token.value != "{":
                        raise self.error("SELECT needs variables or *")
        self.accept("keyword", "WHERE")
        pattern = self.group()
        order_by: list[tuple[Variable, bool]] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            while True:
                direction = self.accept("keyword", "ASC", "DESC")
                if direction is not None:
                    self.expect("punct", "(")
                    var = self.expect("var")
                    self.expect("punct", ")")
                else:
                    var = self.accept("var")
                    if var is None:
                        break
                order_by.append((Variable(var.value[1:]),
                                 direction is not None
                                 and direction.value == "DESC"))
        limit = None
        offset = 0
        while True:
            if self.accept("keyword", "LIMIT"):
                limit = self.integer(self.expect("number"))
            elif self.accept("keyword", "OFFSET"):
                offset = self.integer(self.expect("number"))
            else:
                break
        if self.peek() is not None:
            raise self.error(f"trailing tokens at {self.peek().value!r}")
        return SparqlQuery(form, variables, distinct, pattern, order_by,
                           limit, offset)

    def group(self) -> GroupPattern:
        self.expect("punct", "{")
        self.descend()
        group = GroupPattern()
        while not self.accept("punct", "}"):
            if self.peek() is None:
                raise self.error("unterminated group pattern")
            if self.accept("keyword", "FILTER"):
                self.expect("punct", "(")
                group.filters.append(self.filter_or())
                self.expect("punct", ")")
                self.accept("punct", ".")
            elif self.accept("keyword", "OPTIONAL"):
                group.optionals.append(self.group())
                self.accept("punct", ".")
            else:
                group.triples.append(self.triple())
                if not self.accept("punct", "."):
                    closing = self.peek()
                    if closing is None or closing.value != "}":
                        raise self.error(
                            "expected '.' or '}' after triple pattern")
        self.ascend()
        return group

    def triple(self) -> TriplePattern:
        subject = self.term(position="subject")
        predicate = self.term(position="predicate")
        obj = self.term(position="object")
        return TriplePattern(subject, predicate, obj)

    def term(self, position: str) -> PatternTerm:
        token = self.next()
        if token.kind == "var":
            return Variable(token.value[1:])
        if token.kind == "iri":
            return IRI(token.value[1:-1])
        if token.kind == "qname":
            return self.manager.expand(token.value)
        if token.kind == "keyword" and token.value == "A":
            if position != "predicate":
                raise self.error("'a' is only valid as predicate")
            return _RDF_TYPE
        if position == "object":
            if token.kind == "string":
                lexical = _unescape(token.value[1:-1])
                if self.accept("dtype"):
                    dtype_token = self.next()
                    if dtype_token.kind == "iri":
                        return Literal(lexical, IRI(dtype_token.value[1:-1]))
                    if dtype_token.kind == "qname":
                        return Literal(lexical,
                                       self.manager.expand(dtype_token.value))
                    raise self.error("expected datatype IRI")
                return Literal(lexical)
            if token.kind == "number":
                return _number_literal(token.value)
            if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
                return Literal(token.value.lower(), IRI(_XSD + "boolean"))
        raise self.error(
            f"unexpected term {token.value!r} in {position} position")

    # -- filters -----------------------------------------------------------

    def filter_or(self) -> FilterExpr:
        self.descend()
        left = self.filter_and()
        while self.chained("or"):
            left = BoolOp("||", left, self.filter_and())
        self.ascend()
        return left

    def filter_and(self) -> FilterExpr:
        left = self.filter_not()
        while self.chained("and"):
            left = BoolOp("&&", left, self.filter_not())
        return left

    def filter_not(self) -> FilterExpr:
        if not self.accept("not"):
            return self.filter_comparison()
        self.descend()
        operand = self.filter_not()
        self.ascend()
        return NotOp(operand)

    def filter_comparison(self) -> FilterExpr:
        left = self.filter_primary()
        token = self.peek()
        if token is not None and token.kind in ("eq", "ne", "lt", "gt", "le",
                                                "ge"):
            return Comparison(self.next().value, left, self.filter_primary())
        return left

    def filter_primary(self) -> FilterExpr:
        token = self.next()
        if token.kind == "var":
            return Variable(token.value[1:])
        if token.kind == "string":
            return Literal(_unescape(token.value[1:-1]))
        if token.kind == "number":
            return _number_literal(token.value)
        if token.kind == "iri":
            return IRI(token.value[1:-1])
        if token.kind == "qname":
            return self.manager.expand(token.value)
        if token.kind == "keyword" and token.value == "BOUND":
            self.expect("punct", "(")
            variable = Variable(self.expect("var").value[1:])
            self.expect("punct", ")")
            return BoundCall(variable)
        if token.kind == "keyword" and token.value == "REGEX":
            self.expect("punct", "(")
            operand = self.filter_or()
            self.expect("punct", ",")
            pattern = _unescape(self.expect("string").value[1:-1])
            flags = ""
            if self.accept("punct", ","):
                flags = _unescape(self.expect("string").value[1:-1])
            self.expect("punct", ")")
            if not set(flags) <= set(_REGEX_FLAGS):
                raise self.error(f"bad REGEX flags {flags!r}: each must be "
                                 f"one of {''.join(_REGEX_FLAGS)!r}")
            try:
                return RegexCall(operand, re.compile(pattern, sum(
                    {_REGEX_FLAGS[flag] for flag in flags})))
            except (re.error, RecursionError, OverflowError) as exc:
                raise self.error(
                    f"bad REGEX pattern {pattern!r}: {exc}") from None
        if token.kind == "punct" and token.value == "(":
            inner = self.filter_or()
            self.expect("punct", ")")
            return inner
        raise self.error(f"unexpected filter token {token.value!r}")


#: REGEX flag letters (XPath and XQuery Functions section 7.6.1.1) as
#: Python's.
_REGEX_FLAGS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE,
                "x": re.VERBOSE}


def _unescape(text: str) -> str:
    return (text.replace("\\\\", "\x00").replace('\\"', '"')
            .replace("\\n", "\n").replace("\\t", "\t")
            .replace("\x00", "\\"))


def _number_literal(text: str) -> Literal:
    if "." in text:
        return Literal(text, IRI(_XSD + "decimal"))
    return Literal(text, IRI(_XSD + "integer"))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Binding = dict[str, object]  # variable name → IRI | BlankNode | Literal


def _substitute(term: PatternTerm, bindings: Binding):
    if isinstance(term, Variable):
        return bindings.get(term.name)
    return term


def _match_group(graph: Graph, group: GroupPattern,
                 bindings: Binding) -> Iterator[Binding]:
    yield from _match_triples(graph, list(group.triples), bindings,
                              group)


def _match_triples(graph: Graph, remaining: list[TriplePattern],
                   bindings: Binding,
                   group: GroupPattern) -> Iterator[Binding]:
    if not remaining:
        yield from _apply_tail(graph, bindings, group)
        return
    # Greedy selectivity: run the most-bound pattern next.
    remaining = sorted(remaining,
                       key=lambda p: -p.bound_count(bindings))
    pattern, rest = remaining[0], remaining[1:]
    subject = _substitute(pattern.subject, bindings)
    predicate = _substitute(pattern.predicate, bindings)
    obj = _substitute(pattern.object, bindings)
    if isinstance(predicate, (Literal, BlankNode)):
        return  # cannot be a predicate
    for triple in graph.triples(
            subject if not isinstance(subject, Literal) else None,
            predicate, obj):
        if isinstance(subject, Literal):
            continue
        extended = dict(bindings)
        if not _bind(pattern.subject, triple.subject, extended):
            continue
        if not _bind(pattern.predicate, triple.predicate, extended):
            continue
        if not _bind(pattern.object, triple.object, extended):
            continue
        yield from _match_triples(graph, rest, extended, group)


def _apply_tail(graph: Graph, bindings: Binding,
                group: GroupPattern) -> Iterator[Binding]:
    result = bindings
    for optional in group.optionals:
        matched = next(_match_group(graph, optional, result), None)
        if matched is not None:
            result = matched
    # SPARQL evaluates a group's FILTERs after its OPTIONALs, so
    # !BOUND(?x) over an optional variable works as expected.
    for filter_expr in group.filters:
        if not _filter_bool(filter_expr, result):
            return
    yield result


def _bind(term: PatternTerm, value, bindings: Binding) -> bool:
    if isinstance(term, Variable):
        existing = bindings.get(term.name)
        if existing is None:
            bindings[term.name] = value
            return True
        return existing == value
    return term == value


def _filter_value(expr: FilterExpr, bindings: Binding):
    if isinstance(expr, Variable):
        return bindings.get(expr.name)
    if isinstance(expr, (Literal, IRI)):
        return expr
    if isinstance(expr, BoundCall):
        return expr.variable.name in bindings
    if isinstance(expr, RegexCall):
        operand = _filter_value(expr.operand, bindings)
        if operand is None:
            return False
        text = operand.lexical if isinstance(operand, Literal) \
            else str(operand)
        return expr.pattern.search(text) is not None
    if isinstance(expr, NotOp):
        return not _filter_bool(expr.operand, bindings)
    if isinstance(expr, BoolOp):
        if expr.operator == "&&":
            return (_filter_bool(expr.left, bindings)
                    and _filter_bool(expr.right, bindings))
        return (_filter_bool(expr.left, bindings)
                or _filter_bool(expr.right, bindings))
    if isinstance(expr, Comparison):
        left = _comparable(_filter_value(expr.left, bindings))
        right = _comparable(_filter_value(expr.right, bindings))
        if left is None or right is None:
            return False
        try:
            if expr.operator == "=":
                return left == right
            if expr.operator == "!=":
                return left != right
            if expr.operator == "<":
                return left < right
            if expr.operator == ">":
                return left > right
            if expr.operator == "<=":
                return left <= right
            return left >= right
        except TypeError:
            return False
    raise RdfError(f"SPARQL: unsupported filter expression {expr!r}")


def _filter_bool(expr: FilterExpr, bindings: Binding) -> bool:
    value = _filter_value(expr, bindings)
    if isinstance(value, Literal):
        return bool(value.lexical)
    return bool(value)


def _comparable(value):
    if isinstance(value, Literal):
        try:
            return value.to_python()
        except RdfError:
            return value.lexical
    if isinstance(value, IRI):
        return value.value
    return value


def _sort_key(value):
    if value is None:
        return (0, "", 0)
    comparable = _comparable(value)
    if isinstance(comparable, bool):
        return (1, "bool", int(comparable))
    if isinstance(comparable, (int, float)):
        return (2, "", comparable)
    return (3, type(comparable).__name__, str(comparable))


@dataclass
class SparqlResult:
    """SELECT results: variable names + rows of bound terms."""

    variables: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        """Bound terms of one projected variable."""
        index = self.variables.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as variable→term dictionaries."""
        return [dict(zip(self.variables, row)) for row in self.rows]


def execute_sparql(graph: Graph, query_text: str):
    """Parse and run a SPARQL query over anything with a :class:`Graph`'s
    ``triples(s, p, o)``, each match yielded once.

    Returns a :class:`SparqlResult` for SELECT, a ``bool`` for ASK."""
    query = _Parser(query_text).parse()
    solutions = list(_match_group(graph, query.pattern, {}))
    if query.form == "ASK":
        return bool(solutions)

    if query.variables:
        names = [v.name for v in query.variables]
    else:
        seen: list[str] = []
        for solution in solutions:
            for name in solution:
                if name not in seen:
                    seen.append(name)
        names = seen

    rows = [tuple(solution.get(name) for name in names)
            for solution in solutions]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    for variable, descending in reversed(query.order_by):
        try:
            position = names.index(variable.name)
        except ValueError as exc:
            raise RdfError(f"SPARQL: ORDER BY unknown variable "
                           f"?{variable.name}") from exc
        rows.sort(key=lambda row: _sort_key(row[position]),
                  reverse=descending)
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return SparqlResult(names, rows)
