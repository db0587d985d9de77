"""Tests for the SPARQL subset engine."""

import pytest

from repro.errors import RdfError
from repro.rdf import Graph, Literal
from repro.rdf.namespace import RDF, XSD, Namespace
from repro.rdf.sparql import execute_sparql

EX = Namespace("http://example.org/t#")

PREFIXES = "PREFIX ex: <http://example.org/t#>\n"


@pytest.fixture
def graph():
    g = Graph()
    g.namespace_manager.bind("ex", EX)
    for ident, brand, price in (("w1", "Seiko", 199.5),
                                ("w2", "Casio", 15.5),
                                ("w3", "Seiko", 89.0)):
        subject = EX[ident]
        g.add(subject, RDF.type, EX.watch)
        g.add(subject, EX.brand, Literal(brand))
        g.add(subject, EX.price, Literal(str(price), XSD.double))
    g.add(EX.w1, EX.hasProvider, EX.p1)
    g.add(EX.w3, EX.hasProvider, EX.p1)
    g.add(EX.p1, RDF.type, EX.provider)
    g.add(EX.p1, EX.name, Literal("Acme"))
    return g


class TestSelect:
    def test_single_pattern(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE { ?w a ex:watch . }""")
        assert len(result) == 3
        assert result.variables == ["w"]

    def test_join_across_patterns(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?brand ?name WHERE {
  ?w a ex:watch .
  ?w ex:brand ?brand .
  ?w ex:hasProvider ?p .
  ?p ex:name ?name .
} ORDER BY ?brand""")
        assert result.rows == [(Literal("Seiko"), Literal("Acme")),
                               (Literal("Seiko"), Literal("Acme"))]

    def test_literal_object_constraint(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE { ?w ex:brand "Casio" . }""")
        assert result.rows == [(EX.w2,)]

    def test_filter_numeric(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE { ?w ex:price ?p . FILTER (?p > 100) }""")
        assert result.rows == [(EX.w1,)]

    def test_filter_boolean_operators(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE {
  ?w ex:brand ?b . ?w ex:price ?p .
  FILTER (?b = "Seiko" && ?p < 100)
}""")
        assert result.rows == [(EX.w3,)]

    def test_filter_or_and_not(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE {
  ?w ex:price ?p .
  FILTER (?p < 20 || !(?p < 150))
} ORDER BY ?w""")
        assert result.rows == [(EX.w1,), (EX.w2,)]

    def test_filter_regex(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE { ?w ex:brand ?b . FILTER (REGEX(?b, "^se", "i")) }""")
        assert len(result) == 2

    @pytest.mark.parametrize("pattern, flags, rows", [
        ("^beta", "m", 1), ("^beta", "", 0), ("1.beta", "s", 1),
        ("line 1", "x", 1), ("line", "zz", RdfError)])
    def test_filter_regex_flags(self, pattern, flags, rows):
        graph = Graph()
        graph.add(EX.w1, EX.note, Literal("line1\nbeta"))
        query = (f'SELECT ?o WHERE {{ ?s ?p ?o . '
                 f'FILTER (REGEX(?o, "{pattern}", "{flags}")) }}')
        if rows is RdfError:
            with pytest.raises(RdfError, match="bad REGEX flags"):
                execute_sparql(graph, query)
        else:
            assert len(execute_sparql(graph, query)) == rows

    def test_distinct(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT DISTINCT ?brand WHERE { ?w ex:brand ?brand . } ORDER BY ?brand""")
        assert result.rows == [(Literal("Casio"),), (Literal("Seiko"),)]

    def test_order_desc_limit_offset(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w ?p WHERE { ?w ex:price ?p . } ORDER BY DESC(?p) LIMIT 1""")
        assert result.rows == [(EX.w1, Literal("199.5", XSD.double))]
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w ?p WHERE { ?w ex:price ?p . } ORDER BY ?p OFFSET 1 LIMIT 1""")
        assert result.rows[0][0] == EX.w3

    def test_optional(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w ?name WHERE {
  ?w a ex:watch .
  OPTIONAL { ?w ex:hasProvider ?p . ?p ex:name ?name . }
} ORDER BY ?w""")
        assert len(result) == 3
        by_watch = dict(result.rows)
        assert by_watch[EX.w1] == Literal("Acme")
        assert by_watch[EX.w2] is None

    def test_bound_filter(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE {
  ?w a ex:watch .
  OPTIONAL { ?w ex:hasProvider ?p . }
  FILTER (!BOUND(?p))
}""")
        assert result.rows == [(EX.w2,)]

    def test_select_star(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT * WHERE { ?w ex:name ?n . }""")
        assert set(result.variables) == {"w", "n"}

    def test_as_dicts_and_column(self, graph):
        result = execute_sparql(graph, PREFIXES + """
SELECT ?brand WHERE { ?w ex:brand ?brand . } ORDER BY ?brand""")
        assert result.column("brand")[0] == Literal("Casio")
        assert result.as_dicts()[0] == {"brand": Literal("Casio")}


class TestAsk:
    def test_ask_true(self, graph):
        assert execute_sparql(graph, PREFIXES +
                              'ASK { ?w ex:brand "Seiko" . }') is True

    def test_ask_false(self, graph):
        assert execute_sparql(graph, PREFIXES +
                              'ASK { ?w ex:brand "Omega" . }') is False


class TestErrors:
    def test_unknown_prefix(self, graph):
        with pytest.raises(RdfError):
            execute_sparql(graph, "SELECT ?w WHERE { ?w nope:p ?x . }")

    def test_trailing_garbage(self, graph):
        with pytest.raises(RdfError):
            execute_sparql(graph, PREFIXES +
                           "SELECT ?w WHERE { ?w ex:brand ?b . } extra")

    def test_order_by_unknown_variable(self, graph):
        with pytest.raises(RdfError):
            execute_sparql(graph, PREFIXES + """
SELECT ?w WHERE { ?w ex:brand ?b . } ORDER BY ?ghost""")

    def test_literal_predicate_rejected(self, graph):
        with pytest.raises(RdfError):
            execute_sparql(graph, PREFIXES +
                           'SELECT ?w WHERE { ?w "lit" ?x . }')


class TestInference:
    def test_subclass_type_propagation(self):
        from repro.rdf.inference import materialize_rdfs
        from repro.rdf.namespace import RDFS
        g = Graph()
        g.add(EX.watch, RDFS.subClassOf, EX.product)
        g.add(EX.product, RDFS.subClassOf, EX.thing)
        g.add(EX.w1, RDF.type, EX.watch)
        added = materialize_rdfs(g)
        assert added > 0
        types = set(g.objects(EX.w1, RDF.type))
        assert types == {EX.watch, EX.product, EX.thing}

    def test_domain_range_entailment(self):
        from repro.rdf.inference import materialize_rdfs
        from repro.rdf.namespace import RDFS
        g = Graph()
        g.add(EX.hasProvider, RDFS.domain, EX.product)
        g.add(EX.hasProvider, RDFS.range, EX.provider)
        g.add(EX.w1, EX.hasProvider, EX.p1)
        materialize_rdfs(g)
        assert EX.product in set(g.objects(EX.w1, RDF.type))
        assert EX.provider in set(g.objects(EX.p1, RDF.type))

    def test_subproperty_inheritance(self):
        from repro.rdf.inference import materialize_rdfs
        from repro.rdf.namespace import RDFS
        g = Graph()
        g.add(EX.soldBy, RDFS.subPropertyOf, EX.relatedTo)
        g.add(EX.w1, EX.soldBy, EX.p1)
        materialize_rdfs(g)
        assert (EX.w1, EX.relatedTo, EX.p1) in {
            tuple(t) for t in g}

    def test_idempotent(self):
        from repro.rdf.inference import materialize_rdfs
        from repro.rdf.namespace import RDFS
        g = Graph()
        g.add(EX.watch, RDFS.subClassOf, EX.product)
        g.add(EX.w1, RDF.type, EX.watch)
        materialize_rdfs(g)
        size = len(g)
        assert materialize_rdfs(g) == 0
        assert len(g) == size

    def test_sparql_over_middleware_output_with_inference(self, middleware):
        """End to end: query S2S's OWL output for *products* and find the
        watches via subclass entailment — 'semantic knowledge
        processing'."""
        from repro.core.instances.outputs import entities_to_graph
        from repro.rdf.inference import materialize_rdfs
        result = middleware.query("SELECT product")
        graph = entities_to_graph(middleware.schema, result.entities,
                                  include_schema=True)
        materialize_rdfs(graph)
        base = middleware.ontology.base_iri
        rows = execute_sparql(graph, f"""
PREFIX onto: <{base}>
SELECT DISTINCT ?x WHERE {{ ?x a onto:product . }}""")
        assert len(rows) == 20  # every watch is entailed to be a product
