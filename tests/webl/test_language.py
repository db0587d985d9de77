"""Tests for WebL lexing, parsing and interpretation."""

import pytest

from repro.errors import WeblRuntimeError, WeblSyntaxError
from repro.webl import parse_webl, run_webl
from repro.webl.lexer import tokenize


def run(program: str, pages: dict[str, str] | None = None):
    pages = pages or {}

    def fetch(url: str) -> str:
        if url in pages:
            return pages[url]
        raise WeblRuntimeError(f"no page at {url}")

    return run_webl(program, fetch)


class TestLexer:
    def test_string_escapes(self):
        tokens = tokenize(r'var x = "a\nb\"c";')
        string_token = [t for t in tokens if t.kind == "string"][0]
        assert string_token.value == 'a\nb"c'

    def test_regex_literal_verbatim(self):
        tokens = tokenize(r"var r = `[0-9a-zA-Z']+\d`;")
        regex_token = [t for t in tokens if t.kind == "regex"][0]
        assert regex_token.value == r"[0-9a-zA-Z']+\d"

    def test_comments_skipped(self):
        tokens = tokenize("var x = 1; // comment\n# another\nvar y = 2;")
        assert len([t for t in tokens if t.kind == "number"]) == 2

    def test_line_numbers_tracked(self):
        tokens = tokenize("var x = 1;\nvar y = 2;")
        assert tokens[-1].line == 2

    def test_bad_character(self):
        with pytest.raises(WeblSyntaxError):
            tokenize("var x = @;")


class TestExpressions:
    def test_arithmetic(self):
        assert run("var x = 2 + 3 * 4 - 6 / 2;") == 11.0

    def test_modulo(self):
        assert run("var x = 10 % 3;") == 1

    def test_unary_minus(self):
        assert run("var x = -5 + 2;") == -3

    def test_string_concat(self):
        assert run('var x = "a" + "b" + 1;') == "ab1"

    def test_regex_concat_as_in_paper(self):
        assert run('var x = "<p><b>" + `[0-9]+`;') == "<p><b>[0-9]+"

    def test_comparisons(self):
        assert run("var x = 1 < 2;") is True
        assert run('var x = "a" == "a";') is True
        assert run("var x = 3 >= 4;") is False
        assert run('var x = "a" != "b";') is True

    def test_and_or_short_circuit(self):
        assert run("var x = false and Undefined_Call();") is False
        assert run("var x = true or Undefined_Call();") is True

    def test_not(self):
        assert run("var x = not true;") is False

    def test_list_literal_and_index(self):
        assert run("var l = [10, 20, 30]; var x = l[1];") == 20

    def test_nested_index(self):
        assert run("var l = [[1, 2], [3, 4]]; var x = l[1][0];") == 3

    def test_index_out_of_range(self):
        with pytest.raises(WeblRuntimeError):
            run("var l = [1]; var x = l[5];")

    def test_string_index(self):
        assert run('var s = "abc"; var x = s[1];') == "b"

    def test_division_by_zero(self):
        with pytest.raises(WeblRuntimeError):
            run("var x = 1 / 0;")

    def test_type_error_in_arithmetic(self):
        with pytest.raises(WeblRuntimeError):
            run('var x = "a" - 1;')

    def test_nil(self):
        assert run("return nil;") is None


class TestStatements:
    def test_var_and_assignment(self):
        assert run("var x = 1; x = x + 1;") == 2

    def test_assignment_requires_declaration(self):
        with pytest.raises(WeblRuntimeError):
            run("x = 1;")

    def test_shadowing_builtin_rejected(self):
        with pytest.raises(WeblRuntimeError):
            run('var Select = 1;')

    def test_if_else(self):
        program = """
var x = 5;
var result = "";
if (x > 3) { result = "big"; } else { result = "small"; }
"""
        assert run(program) == "big"

    def test_else_if_chain(self):
        program = """
var x = 2;
var result = "";
if (x == 1) { result = "one"; }
else if (x == 2) { result = "two"; }
else { result = "other"; }
"""
        assert run(program) == "two"

    def test_while_loop(self):
        program = """
var i = 0;
var total = 0;
while (i < 5) { total = total + i; i = i + 1; }
return total;
"""
        assert run(program) == 10

    def test_each_loop(self):
        program = """
var total = 0;
each n in [1, 2, 3] { total = total + n; }
return total;
"""
        assert run(program) == 6

    def test_each_requires_list(self):
        with pytest.raises(WeblRuntimeError):
            run('each c in "abc" { }')

    def test_return_exits_early(self):
        assert run("return 1; var x = 2;") == 1

    def test_return_void(self):
        assert run("var x = 1; return;") is None

    def test_result_is_last_assignment(self):
        assert run("var a = 1; var b = 2; b = 3;") == 3

    def test_infinite_loop_hits_step_budget(self):
        from repro.webl import WeblInterpreter
        interpreter = WeblInterpreter(lambda url: "", step_budget=1000)
        with pytest.raises(WeblRuntimeError) as excinfo:
            interpreter.run("var x = 1; while (true) { x = x + 1; }")
        assert "step budget" in str(excinfo.value)


class TestSyntaxErrors:
    def test_missing_semicolon(self):
        with pytest.raises(WeblSyntaxError):
            parse_webl("var x = 1")

    def test_unterminated_block(self):
        with pytest.raises(WeblSyntaxError):
            parse_webl("if (true) { var x = 1;")

    def test_empty_program(self):
        with pytest.raises(WeblSyntaxError):
            parse_webl("   ")

    def test_error_carries_line(self):
        with pytest.raises(WeblSyntaxError) as excinfo:
            parse_webl("var x = 1;\nvar y = ;")
        assert "line 2" in str(excinfo.value)


class TestRunState:
    """A run's step count and last-assigned value belong to the run."""

    def test_builtin_that_reenters_the_interpreter(self):
        from repro.webl import WeblInterpreter
        interpreter = WeblInterpreter(
            lambda url: "",
            extra_builtins={"Nested": lambda: interpreter.run("var y = 2;")})
        assert interpreter.run("var x = 1; Nested();") == 1
        assert interpreter.run("var x = 1; var z = Nested();") == 2

    def test_nested_run_spends_its_own_budget(self):
        from repro.webl import WeblInterpreter
        interpreter = WeblInterpreter(
            lambda url: "", step_budget=12,
            extra_builtins={"Nested": lambda: interpreter.run(
                "var a = 1; var b = 2; var c = 3; var d = 4;")})
        # 8 steps inside, 11 outside: neither run sees the other's.
        assert interpreter.run(
            "var x = Nested(); var y = Nested(); var z = x + y;") == 8

    def test_compiled_program_runs_on_any_interpreter(self):
        from repro.webl import WeblInterpreter, compile_webl
        program = compile_webl("var x = Where() + 1;")
        for offset in (1, 10):
            interpreter = WeblInterpreter(
                lambda url: "", extra_builtins={"Where": lambda o=offset: o})
            assert interpreter.run(program) == offset + 1


class TestStepBudget:
    def run_with(self, budget: int, program: str):
        from repro.webl import WeblInterpreter
        return WeblInterpreter(lambda url: "", step_budget=budget).run(program)

    def test_a_step_is_a_statement_a_node_or_an_iteration(self):
        # var(1) + list(1) + three literals(3); each(1) + name(1) + three
        # iterations(3), each running assign(1) + '+'(1) + two names(2).
        program = "var l = [1, 2, 3]; var t = 0; each n in l { t = t + n; }"
        total = 5 + 2 + 2 + 3 * (1 + 4)
        assert self.run_with(total, program) == 6
        with pytest.raises(WeblRuntimeError, match="step budget exceeded"):
            self.run_with(total - 1, program)

    def test_iterations_of_an_empty_body_are_charged(self):
        program = "var l = [1, 2, 3]; each n in l { }"
        assert self.run_with(5 + 2 + 3, program) == [1, 2, 3]
        with pytest.raises(WeblRuntimeError, match="step budget exceeded"):
            self.run_with(5 + 2 + 2, program)

    def test_right_operand_is_charged_only_when_reached(self):
        program = "var x = false and (1 + 2 + 3 + 4) == 10;"
        assert self.run_with(3, program) is False
        with pytest.raises(WeblRuntimeError, match="step budget exceeded"):
            self.run_with(3, program.replace("false", "true"))

    def test_budget_can_preempt_an_error_of_the_same_statement(self):
        # Documented (docs/webl.md, "How rules run"): the statement is
        # charged whole - 11 steps - before it runs; the tree walk met the
        # bad index on its 8th.
        program = "var x = [1][5] + 1 + 1 + 1;"
        with pytest.raises(WeblRuntimeError, match="out of range"):
            self.run_with(11, program)
        with pytest.raises(WeblRuntimeError, match="step budget exceeded"):
            self.run_with(10, program)


class TestOnlyTypedErrors:
    """Everything here raised a bare Python exception at 2.6."""

    @pytest.mark.parametrize("program, message", [
        ('var x = "abc"[ToNumber("1e999")];', "index inf out of range"),
        ('var x = "abc"[ToNumber("1e999") - ToNumber("1e999")];',
         "index nan out of range"),
        ('var x = Select("abc", ToNumber("1e999"));', "start must be finite"),
        ('var x = Select("abc", 0, ToNumber("1e999"));', "end must be finite"),
        ("var x = Length();", "Length expects 1 argument(s), got 0"),
        ('var x = Length("a", "b");', "Length expects 1 argument(s), got 2"),
        ("var x = Append([1]);", "Append expects 2 argument(s), got 1"),
        ('var x = Select("abc");', "Select expects 2 to 3 argument(s), got 1"),
        ("var x = 1" + "0" * 400 + " / 3;", "operator '/' overflowed"),
        ("var a = []; a = Append(a, a); var b = []; b = Append(b, b); "
         "var x = a == b;", "lists that contain themselves"),
    ], ids=["index-inf", "index-nan", "select-start-inf", "select-end-inf",
            "no-arguments", "too-many-arguments", "too-few-arguments",
            "optional-argument", "int-too-large-for-float",
            "self-containing-lists"])
    def test_runtime_error(self, program, message):
        with pytest.raises(WeblRuntimeError) as excinfo:
            run(program)
        assert message in str(excinfo.value)

    def test_arity_is_checked_against_the_interpreters_own_table(self):
        from repro.webl import WeblInterpreter
        interpreter = WeblInterpreter(lambda url: "", extra_builtins={
            "Pair": lambda a, b=0: [a, b], "Any": lambda *items: len(items),
            "Len": len})
        assert interpreter.run("var x = Pair(1);") == [1, 0]
        assert interpreter.run("var x = Any(1, 2, 3, 4);") == 4
        assert interpreter.run('var x = Len("abc");') == 3
        with pytest.raises(WeblRuntimeError, match="Pair expects 1 to 2"):
            interpreter.run("var x = Pair();")
        with pytest.raises(WeblRuntimeError, match="Len expects 1 arg"):
            interpreter.run("var x = Len();")

    def test_a_type_error_inside_a_builtin_is_not_an_arity_error(self):
        from repro.webl import WeblInterpreter
        interpreter = WeblInterpreter(lambda url: "", extra_builtins={
            "Broken": lambda value: value + 1})
        with pytest.raises(TypeError):  # the host's bug stays the host's
            interpreter.run('var x = Broken("a");')

    def test_unreached_bad_call_is_not_an_error(self):
        assert run("var x = false and Length();") is False

    def test_expression_too_deep_is_a_typed_error(self):
        from repro.errors import WeblError
        from repro.webl.interpreter import MAX_EXPRESSION_DEPTH
        program = "var x = " + "+".join(["1"] * 900) + ";"
        parse_webl(program)  # the parser loops over the chain: no bound hit
        with pytest.raises(WeblError) as excinfo:
            run(program)
        assert "MAX_EXPRESSION_DEPTH" in str(excinfo.value)
        assert str(MAX_EXPRESSION_DEPTH) in str(excinfo.value)

    def test_expression_at_the_bound_runs(self):
        from repro.webl.interpreter import MAX_EXPRESSION_DEPTH
        terms = MAX_EXPRESSION_DEPTH  # n terms: n - 1 operators over a leaf
        assert run("var x = " + "+".join(["1"] * terms) + ";") == terms
        with pytest.raises(WeblSyntaxError):
            run("var x = " + "+".join(["1"] * (terms + 1)) + ";")

    def test_deepest_program_fits_the_stack_of_a_deep_caller(self):
        from repro.lexing import MAX_NESTING
        from repro.webl.interpreter import MAX_EXPRESSION_DEPTH
        blocks = MAX_NESTING // 2
        # A wrap is an index over a call over a list literal: three levels
        # of expression for two of the parser's (argument, list item).
        wraps = (MAX_NESTING - blocks - 2) // 2
        chain = MAX_EXPRESSION_DEPTH - 3 * wraps - 3

        def program(chain: int) -> str:
            expression = "[7][0]" + "+0" * chain
            for _ in range(wraps):
                expression = f"Select([1, {expression}, 3], 1, 2)[0]"
            return ("if (true) { " * blocks + f"var x = {expression};"
                    + " }" * blocks)

        def from_depth(frames: int):
            return (run(program(chain)) if frames == 0
                    else from_depth(frames - 1))
        assert from_depth(300) == 7
        with pytest.raises(WeblSyntaxError, match="MAX_EXPRESSION_DEPTH"):
            run(program(chain + 1))
