"""Property-based tests for the WebL interpreter."""

from hypothesis import given
from hypothesis import strategies as st

from repro.webl import run_webl

_ints = st.integers(-1000, 1000)
_safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" _-"),
    max_size=20)


def run(program: str):
    return run_webl(program, lambda url: "")


class TestArithmeticAgreesWithPython:
    @given(_ints, _ints)
    def test_addition(self, a, b):
        assert run(f"var x = {a} + {b};") == a + b

    @given(_ints, _ints)
    def test_subtraction_and_multiplication(self, a, b):
        assert run(f"var x = {a} - {b};") == a - b
        assert run(f"var x = {a} * {b};") == a * b

    @given(_ints, _ints.filter(lambda b: b != 0))
    def test_division(self, a, b):
        assert run(f"var x = {a} / {b};") == a / b

    @given(_ints, _ints)
    def test_comparisons(self, a, b):
        assert run(f"var x = {a} < {b};") == (a < b)
        assert run(f"var x = {a} >= {b};") == (a >= b)
        assert run(f"var x = {a} == {b};") == (a == b)


class TestStringBuiltinsAgreeWithPython:
    @given(_safe_text)
    def test_upper_lower_roundtrip(self, text):
        quoted = '"' + text + '"'
        assert run(f"var x = Str_Lower(Str_Upper({quoted}));") == \
            text.upper().lower()

    @given(_safe_text)
    def test_length(self, text):
        quoted = '"' + text + '"'
        assert run(f"var x = Length({quoted});") == len(text)

    @given(_safe_text, st.integers(0, 25), st.integers(0, 25))
    def test_select_is_python_slice(self, text, start, end):
        quoted = '"' + text + '"'
        assert run(f"var x = Select({quoted}, {start}, {end});") == \
            text[start:end]

    @given(st.lists(_ints, max_size=15))
    def test_each_sums_like_python(self, items):
        literal = "[" + ", ".join(map(str, items)) + "]"
        program = f"""
var total = 0;
each n in {literal} {{ total = total + n; }}
return total;
"""
        assert run(program) == sum(items)

    @given(st.lists(_ints, min_size=1, max_size=15))
    def test_index_matches_python(self, items):
        literal = "[" + ", ".join(map(str, items)) + "]"
        for position in (0, len(items) - 1):
            assert run(f"var x = {literal}[{position}];") == items[position]


class TestAttributePathProperties:
    _segments = st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True),
        min_size=2, max_size=6)

    @given(_segments)
    def test_parse_str_roundtrip(self, segments):
        from repro.ids import AttributePath
        text = ".".join(segments)
        path = AttributePath.parse(text)
        assert str(path) == text
        assert AttributePath.parse(str(path)) == path

    @given(_segments)
    def test_structure_invariants(self, segments):
        from repro.ids import AttributePath
        path = AttributePath.parse(".".join(segments))
        assert path.attribute == segments[-1]
        assert list(path.classes) == segments[:-1]
        assert path.leaf_class == segments[-2]
