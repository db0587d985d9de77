"""Compiled XPath steps vs. the frozen interpretive engine.

``_frozen_xpath.py`` is the engine as it stood before location steps
were compiled per node test; this suite evaluates generated paths over
seeded documents on both and requires the same node-set — the same
nodes (by identity; attribute values by value), in the same order — or
the same scalar, or the same error.

The seed comes from ``S2S_DIFF_SEED`` (CI runs a second value), so the
oracle is exercised on inputs not used while the engine was written.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import XPathError
from repro.xmlkit import Document, Element, XPath
from repro.xmlkit.dom import Text

from ._frozen_xpath import XPath as FrozenXPath

SEED = int(os.environ.get("S2S_DIFF_SEED", "20"))

NAMES = ["a", "b", "c", "item"]
ATTRIBUTES = ["k", "id", "currency"]
WORDS = ["x", "y", "Seiko", "10", "10.5", "", "  padded  "]


# ---------------------------------------------------------------------------
# documents


def _flat(rng: random.Random) -> Document:
    """The extraction shape: one record element per row, leaf fields."""
    root = Element("a")
    for index in range(rng.randint(0, 12)):
        item = root.subelement("item", {"id": str(index),
                                        "currency": "EUR"})
        for name in rng.sample(["a", "b", "c"], rng.randint(0, 3)):
            item.subelement(name, text=rng.choice(WORDS))
    return Document(root)


def _nested(rng: random.Random, depth: int = 4) -> Document:
    """Names repeated at several depths, so ``//a//b`` contexts nest."""
    def grow(parent: Element, level: int) -> None:
        for _ in range(rng.randint(0, 3)):
            attributes = {name: rng.choice(["1", "1", "2", "EUR"])
                          for name in ATTRIBUTES if rng.random() < 0.5}
            child = parent.subelement(rng.choice(NAMES), attributes)
            if level < depth and rng.random() < 0.7:
                grow(child, level + 1)
            else:
                child.append_text(rng.choice(WORDS))
    root = Element(rng.choice(NAMES))
    grow(root, 1)
    return Document(root)


def _mixed(rng: random.Random) -> Document:
    """Text interleaved with elements (several text children per node)."""
    root = Element("a", {"k": "1"})
    for _ in range(rng.randint(1, 6)):
        node = root.subelement(rng.choice(NAMES), {"k": "1"})
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                node.append_text(rng.choice(WORDS))
            else:
                node.subelement(rng.choice(NAMES), {"k": "1"},
                                text=rng.choice(WORDS))
    return Document(root)


DOCUMENT_KINDS = {"flat": _flat, "nested": _nested, "mixed": _mixed}


# ---------------------------------------------------------------------------
# paths


def _name(rng: random.Random) -> str:
    return rng.choice(NAMES + ["*"])


def _predicate(rng: random.Random) -> str:
    kind = rng.randrange(9)
    if kind == 0:
        return f"[{rng.randint(1, 3)}]"
    if kind == 1:
        return "[last()]"
    if kind == 2:
        return f"[position() < {rng.randint(1, 4)}]"
    if kind == 3:
        return f"[@{rng.choice(ATTRIBUTES)} = '{rng.choice(['1', 'EUR'])}']"
    if kind == 4:
        return f"[{rng.choice(NAMES)} = '{rng.choice(WORDS)}']"
    if kind == 5:
        return f"[{rng.choice(NAMES)}]"
    if kind == 6:
        return f"[count({_name(rng)}) > {rng.randint(0, 2)}]"
    if kind == 7:
        return rng.choice(['[1.5]', '[number("x")]', '[0]'])
    return f"[contains(., '{rng.choice(['x', 'Sei', '1'])}')]"


def _path(rng: random.Random) -> str:
    steps = []
    for index in range(rng.randint(1, 4)):
        separator = rng.choice(["/", "/", "//"])
        roll = rng.random()
        if roll < 0.70:
            step = _name(rng)
            if rng.random() < 0.3:  # predicates on inner steps too
                step += _predicate(rng)
                if rng.random() < 0.2:
                    step += _predicate(rng)
        elif roll < 0.78:
            step = ".."
        elif roll < 0.84:
            step = "."
        elif roll < 0.92:
            step = "text()"
        else:
            step = "@" + rng.choice(ATTRIBUTES + ["*"])
            if rng.random() < 0.2:
                step += "[. = '1']"
        steps.append((separator if index else rng.choice(["/", "//", "//"]))
                     + step)
    return "".join(steps)


def _expression(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.75:
        return _path(rng)
    if roll < 0.90:
        return f"{_path(rng)} | {_path(rng)}"
    if roll < 0.95:
        return f"count({_path(rng)})"
    return f"string({_path(rng)})"


FIXED_PATHS = [
    "//a/b", "//a//b", "/a/*/c", "//a/@k", "//a/b/text()", "//a/..",
    "//a/.", "//*", "//.", "//..", "//@*", "//a/@k/.", "//a//@k",
    "//a/b | //a/c", "//a/@k | //a/@k", "//item[1]", "//item[last()]",
    "//item[a = 'x']/b", "//a[b][1]//c", "//text()", "/", "/a", "a", ".",
    "//item[1.5]", '//item[number("x")]',
]


def _same(ours, theirs) -> bool:
    """Node-sets: same nodes by identity (strings by value), in order."""
    if isinstance(ours, list) != isinstance(theirs, list):
        return False
    if not isinstance(ours, list):
        return ours == theirs or (ours != ours and theirs != theirs)  # NaN
    if len(ours) != len(theirs):
        return False
    return all(a == b if isinstance(a, str) and isinstance(b, str)
               else a is b for a, b in zip(ours, theirs))


def _outcome(engine, expression: str, document: Document):
    try:
        return engine(expression).evaluate(document)
    except XPathError as exc:
        return ("error", str(exc))


def _describe(value) -> str:
    if not isinstance(value, list):
        return repr(value)
    return "[" + ", ".join(
        item.path() if isinstance(item, Element)
        else repr(item.value) if isinstance(item, Text) else repr(item)
        for item in value) + "]"


@pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
def test_generated_paths_agree_with_the_frozen_engine(kind):
    rng = random.Random(f"{SEED}-{kind}")
    compared = 0
    for _ in range(12):
        document = DOCUMENT_KINDS[kind](rng)
        expressions = FIXED_PATHS + [_expression(rng) for _ in range(60)]
        for expression in expressions:
            ours = _outcome(XPath, expression, document)
            theirs = _outcome(FrozenXPath, expression, document)
            assert _same(ours, theirs), (
                f"seed {SEED}, {kind} document, {expression!r}:\n"
                f"  compiled {_describe(ours)}\n  frozen   {_describe(theirs)}")
            compared += 1
    assert compared >= 12 * len(FIXED_PATHS)


def test_relative_evaluation_from_an_inner_element_agrees():
    """XQuery evaluates clauses with an element as the context node;
    absolute paths must still climb to the document's root element."""
    rng = random.Random(f"{SEED}-relative")
    for _ in range(10):
        document = _nested(rng)
        for element in list(document.iter())[:8]:
            for expression in ("b", "./b", "..", "//b", "/a", "/*/b", ".//c",
                               "@k", "../@k", _path(rng), _path(rng)):
                ours = _outcome(XPath, expression, element)
                theirs = _outcome(FrozenXPath, expression, element)
                assert _same(ours, theirs), (
                    f"seed {SEED}, from {element.path()}, {expression!r}:\n"
                    f"  compiled {_describe(ours)}\n"
                    f"  frozen   {_describe(theirs)}")


def test_the_generator_reaches_the_shapes_it_claims():
    """A differential that never generates a predicate proves little."""
    rng = random.Random(f"{SEED}-coverage")
    sample = " ".join(_expression(rng) for _ in range(400))
    for fragment in ("//", "/*", "/@", "text()", "..", "|", "[last()]",
                     "[1]", "count(", "[@", "]/", "]["):
        assert fragment in sample, fragment
