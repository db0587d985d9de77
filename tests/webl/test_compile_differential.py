"""Compiled WebL vs. the frozen tree-walking interpreter.

``_frozen_interpreter.py`` is the interpreter as it stood before programs
were compiled to closures; this suite runs generated whole programs —
every statement and expression class, every builtin, runtime errors
planted in the middle of loops, small step budgets — on both and requires
the same value, or the same error class and message.

One difference is documented (docs/webl.md, "How rules run"): a statement
is charged for all its nodes before it runs, so under a budget that runs
out *inside* a statement "step budget exceeded" can pre-empt another
runtime error that statement would have raised first.  ``agree`` accepts
exactly that and nothing else; step totals of programs that finish are
pinned to the frozen count.

The seed comes from ``S2S_DIFF_SEED`` (CI runs a second value), so the
oracle is exercised on programs not used while the compiler was written.
The same generator in *hostile* mode — infinities, NaN, wrong argument
counts, huge integers, chains hundreds of terms long — runs without the
oracle and asserts that only ``WeblError`` escapes.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.errors import WeblError, WeblRuntimeError
from repro.webl import WeblInterpreter, parse_webl
from repro.webl.ast import Each, If, While
from repro.webl.builtins import append, make_builtins
from repro.workloads import B2BScenario

from ._frozen_interpreter import WeblInterpreter as FrozenInterpreter
from .test_paper_example import PAPER_HTML, PAPER_RULE

SEED = int(os.environ.get("S2S_DIFF_SEED", "23"))
PROGRAMS = 400
BUDGET = 5_000  # "unlimited" for generated programs; stops `while (true)`

CATALOG = "http://shop.example/catalog"
PAGES = {
    CATALOG: (
        "<html><head><title>Catalog &amp; prices</title></head><body>"
        "<table>" + "".join(
            f'<tr><td class="brand">{brand}</td>'
            f'<td class="price" id="p{n}">{n * 10}.50</td></tr>'
            for n, brand in enumerate(["Seiko", "Casio", "", "Orient"]))
        + "</table><script>var x = '<td>no</td>';</script></body></html>"),
    "http://www.shop.example/watch81": PAPER_HTML,
}
EXTRA = {"SourceURL": lambda: CATALOG}

NUMERIC_TEXTS = ['"12"', '"2.5"', '"$1,299.50"']
DELIMITERS = ['",;"', '"<> "']
TAGS = ['"td"', '"TITLE"']
ATTRIBUTES = ['"class"', '"id"']
BRAND_CELLS = '`<td class="brand">([^<]*)</td>`'


def fetch(url: str) -> str:
    if url in PAGES:
        return PAGES[url]
    raise WeblRuntimeError(f"no page at {url}")


# ---------------------------------------------------------------------------
# programs


class Programs:
    """Seeded generator of WebL program text.

    Expressions are generated *for a type* (``num``, ``str``, ``bool``,
    ``strs``, ``nums``, ``matches``, ``page``) so most programs run to
    the end; ``faults`` is the share of expression sites that get a
    runtime error instead."""

    FAULTS = [
        "ghost",                    # undefined variable
        "[1][5]", "\"abc\"[3]",     # index out of range
        "[1, 2][0 - 1]", "\"abc\"[-1]",
        "1 / 0", "5 % 0",           # division / modulo by zero
        "Nope(1)",                  # unknown function
        "\"a\" - 1", "-\"a\"", "(1 < \"a\")", "nil[0]", "\"abc\"[\"x\"]",
        "Length(5)", "Str_Search(\"a\", \"(\")", "Elem(\"a\", \"td\")",
        "GetURL(\"http://shop.example/missing\")", "GetURL(7)",
        "Str_Split(\"a\", \"\")", "Select(1, 0)", "Select(\"a\", nil)",
        "Append(1, 2)", "Title(\"t\")", "ToNumber(\"x\")",
        "Str_Replace(\"a\", \"(\", \"b\")", "[1] - [2]",
    ]
    FAULT_STATEMENTS = [
        "var Select = 1;",          # shadowed builtin
        "var Length = ghost;",      # ... reported before the value runs
        "ghost = 1;",               # assignment to an undeclared variable
        "each c in \"abc\" { }",    # each over a non-list
        "each c in nil { }",
    ]
    HOSTILE = [
        "ToNumber(\"1e999\")", "ToNumber(\"1e999\") - ToNumber(\"1e999\")",
        "\"abc\"[ToNumber(\"1e999\")]", "[1][0 - ToNumber(\"1e999\")]",
        "\"abc\"[ToNumber(\"1e999\") - ToNumber(\"1e999\")]",
        "Select(\"abc\", ToNumber(\"1e999\"))",
        "Select(\"abc\", 0, ToNumber(\"1e999\"))",
        "Select([1], ToNumber(\"1e999\") * 0)",
        "Length()", "Length(\"a\", \"b\")", "Append([1])", "SourceURL(1)",
        "Select(\"abc\")", "Select(\"abc\", 0, 1, 2)", "GetURL()",
        "1" + "0" * 400, "1" + "0" * 400 + " / 3", "0.5 + 1" + "0" * 400,
        "1" + "0" * 400 + " % 0.5", "+".join(["1"] * 150),
        "[0]" + "[0]" * 150, "not " * 60 + "true",
        " and ".join(["true"] * 150),
    ]

    def __init__(self, rng: random.Random, *, faults: float = 0.02,
                 hostile: bool = False) -> None:
        self.rng = rng
        self.faults = faults
        self.hostile = hostile
        self.scope: dict[str, str] = {}
        self.names = 0

    # -- statements -----------------------------------------------------

    def program(self) -> str:
        self.scope, self.names = {}, 0
        lines = self.block(self.rng.randint(2, 6), 0)
        if self.rng.random() < 0.5:
            lines.append(f"return {self.expr(self.any_type())};")
        return "\n".join(lines)

    def block(self, size: int, depth: int) -> list[str]:
        """Statements whose declarations do not outlive the block (a
        branch not taken would leave them undefined)."""
        outer = dict(self.scope)
        lines = [self.statement(depth) for _ in range(size)]
        self.scope = outer
        return lines

    def fresh(self, kind: str) -> str:
        self.names += 1
        name = f"{kind[0]}{self.names}"
        self.scope[name] = kind
        return name

    def statement(self, depth: int) -> str:
        rng = self.rng
        if rng.random() < self.faults:
            return rng.choice(self.FAULT_STATEMENTS)
        choice = rng.random()
        if choice < 0.35 or depth >= 3:
            kind = self.any_type()
            value = self.expr(kind)
            return f"var {self.fresh(kind)} = {value};"
        if choice < 0.50 and self.scope:
            name = rng.choice(sorted(self.scope))
            return f"{name} = {self.expr(self.scope[name])};"
        if choice < 0.58:
            return f"{self.expr(self.any_type())};"
        inner = "\n".join
        if choice < 0.72:
            text = (f"if ({self.expr('bool')}) {{\n"
                    f"{inner(self.block(rng.randint(0, 2), depth + 1))}\n}}")
            if rng.random() < 0.3:
                text += (f" else if ({self.expr('bool')}) {{\n"
                         f"{inner(self.block(1, depth + 1))}\n}}")
            if rng.random() < 0.5:
                text += (f" else {{\n"
                         f"{inner(self.block(rng.randint(0, 2), depth + 1))}"
                         "\n}")
            return text
        if choice < 0.84:
            return self.each(depth)
        if choice < 0.96:
            return self.while_(depth)
        return "return;" if rng.random() < 0.3 else \
            f"return {self.expr(self.any_type())};"

    def planted(self, counter: str, limit: int) -> list[str]:
        """Sometimes: a fault reached on one iteration of the loop."""
        if self.rng.random() < 0.25:
            fault = self.rng.choice(
                self.FAULT_STATEMENTS
                + [f"var f = {f};" for f in self.FAULTS])
            return [f"if ({counter} == {self.rng.randint(0, max(limit - 1, 0))}) "
                    f"{{ {fault} }}"]
        return []

    def each(self, depth: int) -> str:
        rng = self.rng
        kind = rng.choice(["strs", "nums", "matches"])
        element = {"strs": "str", "nums": "num", "matches": "strs"}[kind]
        if rng.random() < 0.1:  # iterations are all there is to charge
            return f"each unused in {self.expr(kind)} {{ }}"
        outer = dict(self.scope)
        out, count = self.fresh("strs"), self.fresh("num")
        iterable = self.expr(kind)
        item = self.fresh(element)
        body = self.block(rng.randint(0, 2), depth + 1)
        body += self.planted(count, 3)
        body.append(f"{out} = Append({out}, {self.expr(element)});"
                    if element != "strs" else
                    f"{out} = Append({out}, {item}[{rng.randint(0, 1)}]);")
        body.append(f"{count} = {count} + 1;")
        self.scope = outer
        self.scope[out], self.scope[count] = "strs", "num"
        inner = "\n".join(body)
        return (f"var {out} = [];\nvar {count} = 0;\n"
                f"each {item} in {iterable} {{\n{inner}\n}}")

    def while_(self, depth: int) -> str:
        rng = self.rng
        outer = dict(self.scope)
        counter = self.fresh("num")
        limit = rng.randint(0, 6)
        condition = ("true" if rng.random() < 0.1 else
                     f"{counter} < {limit}" if rng.random() < 0.7 else
                     f"{counter} < {limit} and {self.expr('bool')}")
        body = self.block(rng.randint(0, 2), depth + 1)
        body += self.planted(counter, limit)
        if rng.random() < 0.1:
            body.append(f"if ({counter} == 2) {{ return {counter}; }}")
        body.append(f"{counter} = {counter} + 1;")
        self.scope = outer
        self.scope[counter] = "num"
        inner = "\n".join(body)
        return (f"var {counter} = 0;\n"
                f"while ({condition}) {{\n{inner}\n}}")

    # -- expressions ----------------------------------------------------

    def any_type(self) -> str:
        return self.rng.choice(["num", "num", "str", "str", "bool", "strs",
                                "nums", "matches", "page", "nil"])

    def variable(self, kind: str) -> str | None:
        names = sorted(n for n, k in self.scope.items() if k == kind)
        return self.rng.choice(names) if names else None

    def expr(self, kind: str, depth: int = 0) -> str:
        rng = self.rng
        if rng.random() < self.faults:
            return rng.choice(self.FAULTS)
        if self.hostile and rng.random() < 0.1:
            return rng.choice(self.HOSTILE)
        if depth >= 3 or rng.random() < 0.3:
            name = self.variable(kind)
            if name is not None and rng.random() < 0.6:
                return name
            return self.literal(kind)
        e = lambda k: self.expr(k, depth + 1)  # noqa: E731
        return rng.choice(getattr(self, f"_{kind}"))(self, e)

    def literal(self, kind: str) -> str:
        rng = self.rng
        if kind == "num":
            return rng.choice(["0", "1", "2", "7", "2.5", "10.0", "1000"])
        if kind == "str":
            return rng.choice(['"Seiko"', '""', '" pad "', '"a,b;c"', '"12.5"',
                               '"$1,299.50"', '"<p><b>Seiko"', "`[a-z]+`",
                               '"tab\\there"'])
        if kind == "bool":
            return rng.choice(["true", "false"])
        if kind == "strs":
            return rng.choice(['[]', '["a", "b"]', '["x"]'])
        if kind == "nums":
            return rng.choice(["[]", "[1, 2, 3]", "[0.5]"])
        if kind == "matches":
            return 'Str_Search("ab1 cd2", `([a-z]+)([0-9])`)'
        if kind == "page":
            return rng.choice(["GetURL(SourceURL())", f'GetURL("{CATALOG}")',
                               'GetURL("http://www.shop.example/watch81")'])
        return "nil"

    _num = [
        lambda s, e: f"({e('num')} + {e('num')})",
        lambda s, e: f"({e('num')} - {e('num')})",
        lambda s, e: f"{e('num')} * {e('num')}",
        lambda s, e: f"{e('num')} / {s.rng.choice(['2', '4.0', '1'])}",
        lambda s, e: f"{e('num')} % {s.rng.choice(['2', '3', '1.5'])}",
        lambda s, e: f"-{e('num')}",
        lambda s, e: f"Length({e(s.rng.choice(['str', 'strs', 'nums']))})",
        lambda s, e: f"Str_Index({e('str')}, {e('str')})",
        lambda s, e: f"ToNumber({s.rng.choice(NUMERIC_TEXTS)})",
        lambda s, e: f"[4, 5, 6][{e('num')} % 3]",
        lambda s, e: f"({e('num')} or {e('num')})",
    ]
    _str = [
        lambda s, e: f"({e('str')} + {e('str')})",
        lambda s, e: f"({e('str')} + {e(s.rng.choice(['num', 'bool', 'nil']))})",
        lambda s, e: f"({e('num')} + {e('str')})",
        lambda s, e: f"Select({e('str')}, {e('num')}, {e('num')})",
        lambda s, e: f"Select({e('str')}, {e('num')})",
        lambda s, e: f"Str_Trim({e('str')})",
        lambda s, e: f"Str_Lower({e('str')})",
        lambda s, e: f"Str_Upper({e('str')})",
        lambda s, e: f"Str_Replace({e('str')}, `[aeiou]`, {e('str')})",
        lambda s, e: f"ToString({e(s.any_type())})",
        lambda s, e: f'"Orient"[{e("num")} % 6]',
        lambda s, e: f"Text({e('page')})",
        lambda s, e: f"PlainText({e(s.rng.choice(['page', 'str']))})",
        lambda s, e: f"Title({e('page')})",
        lambda s, e: "SourceURL()",
        lambda s, e: f"({e('str')} and {e('str')})",
    ]
    _bool = [
        lambda s, e: f"({e('num')} {s.rng.choice(['<', '>', '<=', '>='])} "
                     f"{e('num')})",
        lambda s, e: f"({e('str')} {s.rng.choice(['<', '>', '<=', '>='])} "
                     f"{e('str')})",
        lambda s, e: f"({e(s.any_type())} {s.rng.choice(['==', '!='])} "
                     f"{e(s.any_type())})",
        lambda s, e: f"({e('bool')} and {e('bool')})",
        lambda s, e: f"({e('bool')} or {e('bool')})",
        lambda s, e: f"not {e(s.any_type())}",
        lambda s, e: f"Str_Contains({e('str')}, {e('str')})",
    ]
    _strs = [
        lambda s, e: f"[{e('str')}, {e('str')}]",
        lambda s, e: f"Str_Split({e('str')}, {s.rng.choice(DELIMITERS)})",
        lambda s, e: f"Elem({e('page')}, {s.rng.choice(TAGS)})",
        lambda s, e: f"Attr({e('page')}, {s.rng.choice(TAGS)}, "
                     f"{s.rng.choice(ATTRIBUTES)})",
        lambda s, e: f"Select({e('strs')}, {e('num')})",
        lambda s, e: f"({e('strs')} + {e('strs')})",
        lambda s, e: f"Append({e('strs')}, {e('str')})",
        lambda s, e: f"{e('matches')}[0]",
    ]
    _nums = [
        lambda s, e: f"[{e('num')}, {e('num')}, {e('num')}]",
        lambda s, e: f"({e('nums')} + {e('nums')})",
        lambda s, e: f"Select({e('nums')}, {e('num')}, {e('num')})",
    ]
    _matches = [
        lambda s, e: f"Str_Search(Text({e('page')}), {BRAND_CELLS})",
        lambda s, e: f"Str_Search({e('str')}, `([a-z])([a-z]?)`)",
    ]
    _page = [lambda s, e: s.literal("page")]
    _nil = [lambda s, e: "nil"]


# ---------------------------------------------------------------------------
# the oracle


def outcome(interpreter, program: str):
    """``("value", repr)`` or ``("error", class name, message)``.

    ``repr`` so that NaN equals NaN and ``1`` differs from ``1.0``."""
    try:
        return ("value", repr(interpreter.run(program)))
    except WeblError as exc:
        return ("error", type(exc).__name__, str(exc))


def is_budget_error(result) -> bool:
    return result[0] == "error" and "step budget exceeded" in result[2]


def statement_cost_bound(program: str) -> int:
    """No statement of ``program`` charges more than this many steps."""
    def nodes(value) -> int:
        if isinstance(value, tuple):
            return sum(nodes(item) for item in value)
        if not hasattr(value, "__dataclass_fields__"):
            return 0
        return 1 + sum(nodes(getattr(value, name))
                       for name in value.__dataclass_fields__)

    def statements(body):
        for statement in body:
            yield statement
            if isinstance(statement, If):
                yield from statements(statement.then_body)
                yield from statements(statement.else_body)
            elif isinstance(statement, (While, Each)):
                yield from statements(statement.body)
    return max(
        1 + nodes(getattr(s, "condition", None) or getattr(s, "iterable", None)
                  or getattr(s, "value", None) or getattr(s, "expression", None))
        for s in statements(parse_webl(program).body))


def agree(program: str, budget: int, fetch=fetch, extra=EXTRA) -> int | None:
    """Run ``program`` on both under ``budget``; the frozen step total if
    it ran to the end, else ``None``."""
    frozen = FrozenInterpreter(fetch, step_budget=budget, extra_builtins=extra)
    compiled = WeblInterpreter(fetch, step_budget=budget, extra_builtins=extra)
    expected, actual = outcome(frozen, program), outcome(compiled, program)
    if actual != expected:
        # The one documented difference: the budget ran out inside the
        # statement that would have raised ``expected``.
        assert is_budget_error(actual) and expected[0] == "error", (
            program, budget, expected, actual)
        assert budget - frozen._steps < statement_cost_bound(program), (
            program, budget, expected, actual)
        return None
    return frozen._steps if expected[0] == "value" else None


@pytest.fixture(scope="module")
def programs() -> list[str]:
    generator = Programs(random.Random(SEED))
    return [generator.program() for _ in range(PROGRAMS)]


def test_generator_reaches_every_node_class_builtin_and_error(programs):
    """The differential is only as wide as what it generates."""
    text = "\n".join(programs)
    for builtin in [*make_builtins(fetch), *EXTRA]:
        assert f"{builtin}(" in text, builtin
    for token in ["var ", "if (", "else if", "else {", "while (", "each ",
                  "return;", "return ", " and ", " or ", "not ", "nil", "`",
                  "[", " % ", " / ", " * ", " - ", " + ", "<=", "!=", "=="]:
        assert token in text, token
    interpreter = WeblInterpreter(fetch, step_budget=BUDGET,
                                  extra_builtins=EXTRA)
    results = [outcome(interpreter, program) for program in programs]
    messages = "\n".join(r[2] for r in results if r[0] == "error")
    for fragment in ["undefined variable", "out of range", "each expects",
                     "cannot shadow builtin", "division by zero",
                     "unknown function", "undeclared variable",
                     "step budget exceeded", "cannot compare", "no page at"]:
        assert fragment in messages, fragment
    finished = sum(r[0] == "value" for r in results)
    assert finished > PROGRAMS // 3, finished


def test_compiled_agrees_with_frozen(programs):
    for program in programs:
        agree(program, BUDGET)


def test_budgets_agree_and_totals_are_the_frozen_totals(programs):
    rng = random.Random(SEED + 1)
    for program in programs:
        total = agree(program, BUDGET)
        if total is not None:
            # Same total: finishes on exactly it, not on one step fewer.
            assert agree(program, total) == total
            assert agree(program, total - 1) is None
        if "while" in program or "each" in program:
            for _ in range(3):
                agree(program, rng.randint(5, 200))


def scenario_rule():
    """The rule ``B2BScenario`` maps ``brand`` to on its first web source."""
    scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
    org = next(o for o in scenario.organizations
               if o.source_type == "webpage")
    return (scenario._native_rule_code(org, "brand"), scenario.web.fetch,
            {"SourceURL": lambda: org.url})


@pytest.mark.parametrize("rule", [(PAPER_RULE, fetch, EXTRA), scenario_rule()],
                         ids=["paper-listing", "b2b-scenario"])
def test_fixed_rules_agree_under_every_budget(rule):
    total = agree(*rule[:1], BUDGET, *rule[1:])
    assert total is not None and total > 10
    for budget in range(total + 2):
        assert agree(rule[0], budget, *rule[1:]) == (
            total if budget >= total else None)


def test_only_webl_errors_escape_hostile_programs():
    generator = Programs(random.Random(SEED + 2), faults=0.05, hostile=True)
    interpreter = WeblInterpreter(fetch, step_budget=BUDGET,
                                  extra_builtins=EXTRA)
    escaped = 0
    for _ in range(PROGRAMS):
        program = generator.program()
        try:
            interpreter.run(program)
        except WeblError:
            escaped += 1
    assert escaped > PROGRAMS // 10  # the hostile inputs are being reached


# ---------------------------------------------------------------------------
# the collection idiom
#
# ``each g in m { out = Append(out, g[k]); }`` compiles to one
# comprehension that runs only when the interpreted loop could not raise
# (docs/webl.md, "How rules run").  The programs above never generate
# that body alone; these do, beside the near-misses that must keep the
# interpreted loop, and each must agree with the frozen tree walk under
# every budget up to its total.

IDIOMS = 60
FAST = "fast"
NEAR_MISSES = ["two statements", "out of range on the third item",
               "nil item", "number item", "undeclared target",
               "target not a list", "target is the iterable",
               "target is an item", "target is the loop variable",
               "index 1.0", "index 1.5", "index -1", "pattern without groups",
               "empty match list"]


class Idioms:
    """Seeded generator of ``(kind, program)``: ``kind`` is ``FAST`` for a
    loop the compiler lowers and runs on its fast path, else the
    near-miss of ``NEAR_MISSES`` the program plants.  Kinds are the
    caller's, so every one is reached on every seed."""

    ITERABLES = [  # (expression, shortest item length)
        (f"Str_Search(Text(GetURL(SourceURL())), {BRAND_CELLS})", 2),
        ("Str_Search(\"ab1 cd2 ef3\", `([a-z]+)([0-9])`)", 3),
        ("Str_Search(\"ab1 cd\", `([a-z]+)([0-9])?`)", 3),
        ("[[\"a\", \"b\"], [\"c\", \"d\", \"e\"], [1, nil]]", 2),
        ("Str_Split(\"ab,cd;efg\", \",;\")", 2),
        ("Elem(GetURL(SourceURL()), \"td\")", 0),
    ]
    TARGETS = ["[]", '["z"]', "[1, nil]"]
    NOT_LISTS = ["nil", "3", '"s"']
    TAILS = ["", "return out;", "return g;", "return [out, g, Length(out)];",
             "var n = Length(out);", "var n = g;"]

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def program(self, kind: str) -> tuple[str, str]:
        rng = self.rng
        iterable, shortest = rng.choice(self.ITERABLES)
        if kind == FAST and shortest == 0:
            iterable, shortest = self.ITERABLES[0]
        k = str(rng.randrange(max(shortest, 1)))
        setup = [f"var m = {iterable};",
                 f"var out = {rng.choice(self.TARGETS)};"]
        variable, body = "g", "out = Append(out, g[K]);"
        if kind == "two statements":
            setup.append("var c = 0;")
            body += rng.choice([" c = c + 1;", " c = Length(out);"])
        elif kind == "out of range on the third item":
            setup[0] = "var m = [[\"a\", \"b\"], [\"c\", \"d\"], [\"e\"]];"
            k = "1"
        elif kind in ("nil item", "number item"):
            odd = "nil" if kind == "nil item" else rng.choice(["7", "2.5"])
            setup[0] = f"var m = [[\"a\", \"b\"], {odd}, [\"c\", \"d\"]];"
            k = "0"
        elif kind == "undeclared target":
            del setup[1]
        elif kind == "target not a list":
            setup[1] = f"var out = {rng.choice(self.NOT_LISTS)};"
        elif kind == "target is the iterable":  # ends on "b"[1]
            setup[:2] = ["var m = [[\"a\", \"b\"], [\"c\", \"d\"]];",
                         "var out = m;"]
            k = "1"
        elif kind == "target is an item":
            setup[0] = "var m = [[\"a\", \"b\"], [\"c\", \"d\"]];"
            setup[1] = f"var out = m[{rng.randrange(2)}];"
        elif kind == "target is the loop variable":
            variable, body = "out", "out = Append(out, out[K]);"
        elif kind.startswith("index "):
            k = kind.split()[1]
        elif kind == "pattern without groups":
            setup[0] = "var m = Str_Search(\"ab cd\", `[a-z]+`);"
            k = rng.choice(["0", "1"])
        elif kind == "empty match list":
            setup[0] = "var m = Str_Search(\"abc\", `[0-9]+`);"
        loop = f"each {variable} in m {{ {body.replace('K', k)} }}"
        lines = [*setup, loop]
        if rng.random() < 0.5:  # the loop's assignment is the last one
            lines.insert(len(setup), "var seen = Length(m);")
        if rng.random() < 0.3:  # the same loop again, on a grown target
            lines.append(loop)
        lines.append(rng.choice(self.TAILS))
        return kind, "\n".join(lines)


@pytest.fixture(scope="module")
def idioms() -> list[tuple[str, str]]:
    generator = Idioms(random.Random(SEED + 3))
    kinds = [FAST] * 10 + NEAR_MISSES
    return [generator.program(kinds[n % len(kinds)]) for n in range(IDIOMS)]


def frozen_steps(program: str, extra=EXTRA) -> int:
    """The steps the frozen tree walk spends on ``program``, to its end or
    to its error."""
    frozen = FrozenInterpreter(fetch, step_budget=BUDGET, extra_builtins=extra)
    outcome(frozen, program)
    return frozen._steps


def stock_append_calls(interpreter, program: str) -> int:
    """How often one run of ``program`` calls the stock ``Append``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is append.__code__:
            calls += 1
    sys.setprofile(profile)
    try:
        outcome(interpreter, program)
    finally:
        sys.setprofile(None)
    return calls


def test_idiom_generator_reaches_every_near_miss(idioms):
    kinds = {kind for kind, _ in idioms}
    assert kinds == {FAST, *NEAR_MISSES}, set(NEAR_MISSES) - kinds
    interpreter = WeblInterpreter(fetch, step_budget=BUDGET,
                                  extra_builtins=EXTRA)
    results = [outcome(interpreter, program) for _, program in idioms]
    assert sum(r[0] == "value" for r in results) > IDIOMS // 3
    assert sum(r[0] == "error" for r in results) > IDIOMS // 10


def test_idioms_agree_under_every_budget(idioms):
    for _, program in idioms:
        total = frozen_steps(program)
        for budget in range(total + 2):
            agree(program, budget)


def test_fast_idioms_never_call_append(idioms):
    """The differential cannot see a fast path that always falls back:
    its fallback is correct.  A lowered loop over a non-empty list calls
    no ``Append`` at all."""
    interpreter = WeblInterpreter(fetch, step_budget=BUDGET,
                                  extra_builtins=EXTRA)
    fast = [program for kind, program in idioms if kind == FAST]
    assert len(fast) > IDIOMS // 4
    for program in fast:
        assert stock_append_calls(interpreter, program) == 0, program
    loop = ("var m = [[\"a\", \"b\"], [\"c\", \"d\"], [\"e\"]];\n"
            "var out = [];\neach g in m { out = Append(out, g[1]); }")
    assert stock_append_calls(interpreter, loop) == 2  # out of range on 3


def test_an_append_supplied_by_the_host_is_called_per_item(idioms):
    calls = []

    def counting(target, item):
        calls.append(item)
        return append(target, item)
    extra = {**EXTRA, "Append": counting}
    for kind, program in idioms:
        if kind != FAST:
            continue
        total = frozen_steps(program, extra)
        for budget in (total - 1, total):
            agree(program, budget, extra=extra)
        calls.clear()
        outcome(WeblInterpreter(fetch, step_budget=BUDGET,
                                extra_builtins=extra), program)
        expected = len(calls)
        calls.clear()
        outcome(FrozenInterpreter(fetch, step_budget=BUDGET,
                                  extra_builtins=extra), program)
        assert expected == len(calls) > 0, program
