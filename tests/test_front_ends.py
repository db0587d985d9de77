"""Boundary fuzzing of the text front ends (ROADMAP item 7, stage one,
first slice): S2SQL, SQL, XPath, WebL, SPARQL and Turtle — the six token
languages on :mod:`repro.lexing` — plus the character-level XML and HTML
parsers.

The contract under test: whatever text arrives, a front end either
returns or raises a typed :class:`~repro.errors.S2SError` subclass
(``parse_html``: it returns), and it does so promptly.  Each language's
seed corpus starts with the inputs that broke that contract before the
shared scanner existed — bare ``RecursionError`` / ``ValueError`` /
``OverflowError`` — so the named regressions below and the mutation fuzz
both stand on them.  Nesting and operator chains are bounded at parse
time (``MAX_NESTING``, ``MAX_CHAIN``), so what parses also runs.  CI runs
this file once more with ``--hypothesis-seed=4711``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query.parser import parse_s2sql
from repro.errors import (ExtractionError, RdfError, RdfSyntaxError,
                          S2SError, S2sqlSyntaxError, SqlSyntaxError,
                          WeblSyntaxError, XmlSyntaxError, XPathError)
from repro.htmlkit import decode_html_entities, parse_html
from repro.lexing import MAX_CHAIN, MAX_NESTING
from repro.rdf import Graph, execute_sparql
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.turtle import parse_turtle
from repro.sources.relational import Database
from repro.sources.relational.sql.parser import parse_sql
from repro.sources.web import SimulatedWeb, WebDataSource
from repro.webl import parse_webl
from repro.xmlkit import XPath, parse_xml

DEEP = 5000
SPARQL_HEAD = "SELECT ?s WHERE { ?s ?p ?o "
#: Deeper than the interpreter's recursion limit: the parser always coped,
#: the tree walks behind WebL's operators did not.
DEEP_PAGE = "<div>" * 3000 + "<span>deep</span>" + "</div>" * 3000


def sparql(text: str):
    return execute_sparql(Graph(), text)


#: The small document every XPath that parses is also evaluated on.
XPATH_DOC = parse_xml("<a><b>1</b><b>2</b></a>")


def xpath(text: str):
    return XPath(text).evaluate(XPATH_DOC)


def html(text: str):
    decode_html_entities(text)
    document = parse_html(text)
    document.text()  # and the walks WebL's operators run over the tree
    document.root.text()
    return document.find_all("span")


FRONT_ENDS = {"s2sql": parse_s2sql, "sql": parse_sql, "xpath": xpath,
              "webl": parse_webl, "sparql": sparql, "turtle": parse_turtle,
              "xml": parse_xml, "html": html}

#: Per front end: (input, the typed error it must raise — ``None`` where
#: it must return).  The first entries are the defects this suite landed
#: with; the rest are well-formed seeds for the mutator.
CORPUS: dict[str, list[tuple[str, type[S2SError] | None]]] = {
    "s2sql": [
        ("SELECT product FROM t", S2sqlSyntaxError),
        ("SELECT p WHERE x = " + "9" * 5000, S2sqlSyntaxError),
        ("SELECT product WHERE price < 10.5 AND brand LIKE 'Sei%'", None),
        ('SELECT thing.product.watch WHERE wr >= -3 AND name != "x"', None),
    ],
    "sql": [
        ("SELECT a FROM t WHERE " + "(" * DEEP, SqlSyntaxError),
        ("SELECT a FROM t WHERE " + "NOT " * DEEP + "a = 1", SqlSyntaxError),
        ("SELECT a FROM t LIMIT 1.5", SqlSyntaxError),
        ("SELECT a FROM t WHERE x = " + "9" * 5000, SqlSyntaxError),
        ("SELECT a FROM t WHERE " + " OR ".join(["a = 1"] * 1000),
         SqlSyntaxError),
        ("SELECT a FROM t WHERE " + " AND ".join(["a = 1"] * 1000),
         SqlSyntaxError),
        ("SELECT DISTINCT t.a, COUNT(*) AS n FROM t LEFT JOIN u ON t.k = u.k "
         "WHERE (a = 1 OR NOT b IN ('x', 'it''s')) AND c IS NOT NULL "
         "GROUP BY t.a HAVING n > 1 ORDER BY a DESC LIMIT 3;", None),
        ('INSERT INTO "t" (a, b) VALUES (1, \'x\'), (.5, NULL) -- done', None),
        ("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(20) NOT NULL)",
         None),
    ],
    "xpath": [
        ("(" * DEEP, XPathError),
        ("a" + "[a" * DEEP, XPathError),
        ("//b[" + " or ".join(["1=1"] * 1000) + "]", XPathError),
        ("//b[" + " and ".join(["1=1"] * 1000) + "]", XPathError),
        (" | ".join(["//b"] * 1000), XPathError),
        ("//item[@k = '1' and position() <= last()]/n | /c/i[2]/text()",
         None),
        ("count(//a[contains(., \"x\") or not(b)]) >= 1.5", None),
        # calls of the wrong arity (XPath 1.0 section 4) or argument type
        ('contains("a")', XPathError),
        ('starts-with("a")', XPathError),
        ('substring("abc")', XPathError),
        ("not()", XPathError),
        ("string-length(1, 2, 3)", XPathError),
        ("normalize-space(1, 2)", XPathError),
        ("//b[position(1)]", XPathError),
        ('concat("a")', XPathError),
        ("count(1)", XPathError),
        ('concat(substring("abc", 2), string-length(), name(), "x") != '
         'normalize-space(" a ")', None),
    ],
    "webl": [
        ("var x = " + "(" * DEEP + ";", WeblSyntaxError),
        ("var x = " + "not " * DEEP + "1;", WeblSyntaxError),
        ("var x = " + "9" * 5000 + ";", WeblSyntaxError),
        ("if (1) {" * DEEP, WeblSyntaxError),
        ("if (1) { } " + "else if (1) { } " * (DEEP // 4), WeblSyntaxError),
        ('var P = GetURL("http://x/y"); // fetch\n'
         "var r = `[0-9a-z']+` + \"<b>\\n\";\n"
         "each m in Str_Search(Text(P), r) { if (m[0] == nil) { return; } "
         "else { x = -m[0][1] * 2 % 3; } }\n# done", None),
        ("while (not (i >= 3) and true) { i = i + 1; } return [i, [1.5]];",
         None),
    ],
    "sparql": [
        (SPARQL_HEAD + "} LIMIT 1.5", RdfError),
        (SPARQL_HEAD + "} OFFSET -1.0", RdfError),
        (SPARQL_HEAD + ". FILTER (" + "(" * DEEP, RdfError),
        (SPARQL_HEAD + ". FILTER (" + "!" * DEEP + "?s) }", RdfError),
        (SPARQL_HEAD + ". FILTER (" + " || ".join(["?s"] * 1000) + ") }",
         RdfError),
        ("SELECT ?s WHERE " + "{ OPTIONAL " * DEEP, RdfError),
        ("SELECT * WHERE { FILTER (REGEX(\"a\", \"(\")) }", RdfError),
        ("PREFIX ex: <http://e/> SELECT DISTINCT ?s ?n WHERE { ?s a ex:W . "
         "?s ex:n ?n . OPTIONAL { ?s ex:p \"1\"^^xsd:integer } FILTER (?n >= 2 "
         "&& !BOUND(?x) || REGEX(?n, \"^a\", \"i\")) } ORDER BY DESC(?n) ?s "
         "LIMIT 5 OFFSET 1", None),
        ("ASK { <http://e/a> ?p true }", None),
    ],
    "turtle": [
        ("<a> <b> " + "[ <b> " * DEEP, RdfSyntaxError),
        ('<a> <b> "\\uZZZZ" .', RdfSyntaxError),
        ('<a> <b> "\\UFFFFFFFF" .', RdfSyntaxError),
        ('<a> <b> "\\uD800" .', RdfSyntaxError),
        ('<a> <b> "\\u00', RdfSyntaxError),
        ("@prefix ex: <http://e/> .\n@base <http://b/> .\n"
         'ex:a a ex:T ; ex:p "x\\n\\u0041"@en-GB , 1.5e3 , true ;\n'
         '  ex:q [ ex:r _:n1 , """long\n"text""" ] , "7"^^ex:int . # end',
         None),
    ],
    "xml": [
        ("<a>" * 3000, XmlSyntaxError),
        ("<a>&#xZZ;</a>", XmlSyntaxError),
        ("<a>&#;</a>", XmlSyntaxError),
        ("<a>&#1114112;</a>", XmlSyntaxError),
        ("<a>&#99999999999;</a>", XmlSyntaxError),
        ('<a k="&#xD800;"/>', XmlSyntaxError),
        ('<?xml version="1.0"?><!DOCTYPE c [<!ENTITY x "y">]>\n'
         '<c xmlns:p="http://p/"><!-- c --><p:i k="1&amp;&#x41;">t&#65;'
         "<![CDATA[<raw>]]></p:i><?pi x?><e/></c>\n", None),
    ],
    "html": [
        ("&#99999999999999999999;", None),
        ("&#xZZ; &#; &#1114112; &#xD800;", None),
        ("<html><body><p class=x>A &amp; B&#33;<br><td a='&#x41;' b>c"
         "</table></p><!-- c --><!DOCTYPE x></bogus>tail", None),
        (DEEP_PAGE, None),
    ],
}

ALL_SEEDS = [(name, text, error) for name, entries in CORPUS.items()
             for text, error in entries]


@pytest.mark.parametrize(
    "name, text, error", ALL_SEEDS,
    ids=[f"{name}-{index}" for name, entries in CORPUS.items()
         for index in range(len(entries))])
def test_corpus_entry_returns_or_raises_its_typed_error(name, text, error):
    if error is None:
        FRONT_ENDS[name](text)
    else:
        with pytest.raises(error):
            FRONT_ENDS[name](text)


def test_html_leaves_a_reference_to_no_character_as_written():
    text = "&#99999999999999999999; &#xZZ; &#1114112; &#xD800; &#x41;&#66;"
    assert decode_html_entities(text) == text[:-11] + "AB"


@pytest.mark.parametrize("rule, values", [
    ("PlainText(P)", ["deep"]), ('Elem(P, "span")', ["deep"]),
    ("Title(P)", [""]), ("Elem(P, 5)", ExtractionError)])
def test_a_webl_rule_over_a_deep_page_raises_only_typed_errors(rule, values):
    web = SimulatedWeb()
    web.publish("http://deep.example/p", DEEP_PAGE)
    source = WebDataSource("DEEP", web, "http://deep.example/p")
    text = f"var P = GetURL(SourceURL()); return {rule};"
    if values is ExtractionError:
        with pytest.raises(ExtractionError, match="WebL rule failed"):
            source.execute_rule(text)
    else:
        assert source.execute_rule(text) == values


def test_ntriples_shares_the_turtle_escapes():
    graph = parse_ntriples('<http://a> <http://b> "\\u0041\\U0001F600\\n" .')
    assert [t.object.lexical for t in graph] == ["A\U0001F600\n"]
    with pytest.raises(RdfSyntaxError, match="line 2"):
        parse_ntriples('\n<http://a> <http://b> "\\uZZZZ" .')


# -- the nesting bound -------------------------------------------------------
#
# MAX_NESTING counts every recursive production entered, the outermost one
# included: ``outer`` is how many the smallest input of each family has
# already entered before its first nested level.

NESTED = {
    "sql-paren": ("sql", 1, lambda n: "SELECT a FROM t WHERE "
                  + "(" * n + "a = 1" + ")" * n),
    "sql-not": ("sql", 1, lambda n: "SELECT a FROM t WHERE "
                + "NOT " * n + "a = 1"),
    "xpath-paren": ("xpath", 1, lambda n: "(" * n + "a" + ")" * n),
    "xpath-predicate": ("xpath", 1, lambda n: "a" + "[a" * n + "]" * n),
    "xpath-call": ("xpath", 1, lambda n: "not(" * n + "a" + ")" * n),
    "webl-paren": ("webl", 1, lambda n: "var x = " + "(" * n + "1"
                   + ")" * n + ";"),
    "webl-list": ("webl", 1, lambda n: "var x = " + "[" * n + "1" + "]" * n
                  + ";"),
    "webl-index": ("webl", 1, lambda n: "var x = a" + "[a" * n + "]" * n
                   + ";"),
    "webl-unary": ("webl", 1, lambda n: "var x = " + "- " * n + "1;"),
    "webl-block": ("webl", 0, lambda n: "while (1) {" * n + "}" * n),
    "webl-else-if": ("webl", 1, lambda n: "if (1) { } "
                     + "else if (1) { } " * n),
    "sparql-optional": ("sparql", 1, lambda n: "SELECT * WHERE { "
                        + "OPTIONAL { " * n + "?s ?p ?o " + "} " * n + "}"),
    "sparql-paren": ("sparql", 2, lambda n: "SELECT * WHERE { FILTER ("
                     + "(" * n + "?s" + ")" * n + ") }"),
    "sparql-not": ("sparql", 2, lambda n: "SELECT * WHERE { FILTER ("
                   + "!" * n + "?s) }"),
    "turtle-bnode": ("turtle", 0, lambda n: "<http://a> <http://b> "
                     + "[ <http://b> " * n + "<http://c> " + "] " * n + "."),
    "xml-element": ("xml", 0, lambda n: "<a>" * n + "</a>" * n),
}


@pytest.mark.parametrize("family", sorted(NESTED))
def test_nesting_is_accepted_at_the_bound_and_refused_one_past_it(family):
    name, outer, build = NESTED[family]
    FRONT_ENDS[name](build(MAX_NESTING - outer))
    with pytest.raises(S2SError, match=f"deeper than {MAX_NESTING} levels"):
        FRONT_ENDS[name](build(MAX_NESTING - outer + 1))


# -- the chain bound ---------------------------------------------------------
#
# MAX_CHAIN counts binary operators over the whole text.  At the bound,
# under the deepest nesting that still parses, what parses must also run:
# compiling and evaluating recurse once per operator.

SQL_DB = Database("chains")
SQL_DB.executescript("CREATE TABLE t (a TEXT); INSERT INTO t (a) VALUES ('1');")
SPARQL_GRAPH = parse_turtle("<http://a> <http://b> <http://c> .")

#: family -> (terms -> text, run the text end to end)
CHAINS = {
    "xpath-or": (lambda n: "//b[" + "not(" * 62 + " or ".join(["1=0"] * n)
                 + ")" * 62 + "]",
                 lambda text: XPath(text).select(XPATH_DOC)),
    "xpath-union": (lambda n: "(" * 63 + " | ".join(["//b"] * n) + ")" * 63,
                    lambda text: XPath(text).select(XPATH_DOC)),
    "sql-or": (lambda n: "SELECT a FROM t WHERE " + "NOT (" * 31
               + " OR ".join(["a = 'x'"] * n) + ")" * 31,
               lambda text: (SQL_DB.execute(text),
                             SQL_DB.execute(text, engine="row"),
                             SQL_DB.explain(text))),
    "sql-and": (lambda n: "UPDATE t SET a = '1' WHERE "
                + " AND ".join(["a = '1'"] * n),
                lambda text: (SQL_DB.execute(text),
                              SQL_DB.execute(text, engine="row"))),
    "sparql-or": (lambda n: SPARQL_HEAD + ". FILTER (" + "!(" * 31
                  + " || ".join(["?s = 1"] * n) + ")" * 31 + ") }",
                  lambda text: execute_sparql(SPARQL_GRAPH, text)),
}


def deep_caller(frames: int, call):
    return deep_caller(frames - 1, call) if frames else call()


@pytest.mark.parametrize("family", sorted(CHAINS))
def test_a_chain_runs_at_the_bound_and_is_refused_one_past_it(family):
    build, run_ = CHAINS[family]
    deep_caller(300, lambda: run_(build(MAX_CHAIN + 1)))  # the bound
    with pytest.raises(S2SError, match=rf"more than {MAX_CHAIN} chained "
                       r"operators \(MAX_CHAIN\)"):
        run_(build(MAX_CHAIN + 2))


# -- fuzz --------------------------------------------------------------------

FUZZ = settings(max_examples=100, deadline=5000)

#: What a mutation splices in: the delimiters, escapes and reference
#: syntax the eight grammars are made of, weighted over plain text.
SPLICE = st.one_of(
    st.sampled_from(list("()[]{}<>&#;\\\"'`.,:*!=|-+/@?^%_ \n")
                    + ["&#x", "&#", "\\u", "\\U", "LIMIT ", "NOT ", "not ",
                       "[ <b> ", "<a>", "</a>", "''", '"""', "1.5", "-1.0",
                       "//", "--", "^^", "OPTIONAL {", "else if (1) {"]),
    st.text(max_size=4))


@st.composite
def mutated(draw, name: str) -> str:
    """A corpus entry of ``name`` (its first thousand characters: past the
    nesting bound already) after one to four splices, deletions or
    repetitions of a short slice."""
    text = draw(st.sampled_from([seed[:1000] for seed, _ in CORPUS[name]]))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 6)))
        replacement = draw(st.one_of(
            SPLICE, st.just(""),
            st.integers(2, 200).map(lambda n: text[start:end] * n)))
        text = text[:start] + replacement + text[end:]
    return text


def run(name: str, text: str) -> None:
    try:
        FRONT_ENDS[name](text)
    except S2SError:
        assert name != "html", "parse_html never fails"


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
@FUZZ
@given(data=st.data())
def test_only_typed_errors_escape_on_arbitrary_text(name, data):
    run(name, data.draw(st.text(max_size=200)))


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
@FUZZ
@given(data=st.data())
def test_only_typed_errors_escape_on_mutated_seeds(name, data):
    run(name, data.draw(mutated(name)))
