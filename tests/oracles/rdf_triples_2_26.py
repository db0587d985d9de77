"""The per-triple RDF path of release 2.26, frozen when release 2.27
(PR 47) gave every record shape one triple pattern.

Up to 2.26 every triple producer built its terms afresh: each triple of
an individual minted its subject, class and predicate through
``Namespace.__getitem__`` (one validated ``IRI`` per call), and
``python_to_literal`` minted a new datatype ``IRI`` for every typed
literal.  The store's slice index (``entity_triples``) and
``entities_to_graph`` were built that way, and the ``owl``, ``turtle``
and ``ntriples`` outputs of ``render_entities`` were
``serialize_rdfxml`` / ``serialize_turtle`` / ``serialize_ntriples`` of
``entities_to_graph``.  This module keeps those four functions as they
were, and the three graph serializers that wrote the text (RDF/XML
through an ``Element`` tree), so that
``tests/oracles/test_rdf_pattern_differential.py`` and the store's
model-graph oracle (``tests/integration/_frozen_store_graph.py``) can
hold the pattern path to the triples and texts of 2.26.  No line has
been edited since it was frozen, apart from this header and the imports;
``render_entities_2_26`` is the three RDF branches of 2.26's
``render_entities`` and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import RdfError
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, Namespace, NamespaceManager
from repro.rdf.terms import IRI, BlankNode, Literal, Object, Subject, Triple
from repro.xmlkit import Document, Element, serialize_xml

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

#: Provenance vocabulary for stored entities.
STORE = Namespace("http://example.org/s2s/store#")


def python_to_literal(value, xsd_namespace: str = "http://www.w3.org/2001/XMLSchema#") -> Literal:
    """Build a typed literal from a native Python value."""
    import datetime as _dt

    if isinstance(value, Literal):
        return value
    if isinstance(value, bool):
        return Literal("true" if value else "false", IRI(xsd_namespace + "boolean"))
    if isinstance(value, int):
        return Literal(str(value), IRI(xsd_namespace + "integer"))
    if isinstance(value, float):
        return Literal(repr(value), IRI(xsd_namespace + "double"))
    if isinstance(value, _dt.datetime):
        return Literal(value.isoformat(), IRI(xsd_namespace + "dateTime"))
    if isinstance(value, _dt.date):
        return Literal(value.isoformat(), IRI(xsd_namespace + "date"))
    if isinstance(value, str):
        return Literal(value)
    raise RdfError(f"cannot convert {type(value).__name__} to RDF literal")


def individual_triples(namespace: Namespace,
                       individual) -> Iterator[Triple]:
    """The triples describing one individual: its type, one per
    attribute value, one per object-property link."""
    subject = namespace[individual.identifier]
    yield Triple(subject, RDF.type, namespace[individual.class_name])
    for name, value in individual.values.items():
        items = value if isinstance(value, list) else [value]
        for item in items:
            yield Triple(subject, namespace[name], python_to_literal(item))
    for name, targets in individual.links.items():
        for target in targets:
            yield Triple(subject, namespace[name],
                         namespace[target.identifier])


def entity_triples(namespace: Namespace, class_name: str,
                   entities) -> Iterator[Triple]:
    """Every entity's triples plus its provenance (source, record index
    and the materialization's class).  A value with no literal form
    raises :class:`~repro.errors.RdfError`."""
    for entity in entities:
        for individual in entity.all_individuals():
            yield from individual_triples(namespace, individual)
        primary = namespace[entity.primary.identifier]
        yield Triple(primary, STORE.source, Literal(entity.source_id))
        yield Triple(primary, STORE.recordIndex,
                     python_to_literal(entity.record_index))
        yield Triple(primary, STORE.entityClass, Literal(class_name))


def entities_to_graph(schema, entities, *, include_schema: bool = False) -> Graph:
    """Collect all individuals of the entities into one RDF graph."""
    ontology = schema.ontology
    manager = NamespaceManager()
    namespace = Namespace(ontology.base_iri)
    manager.bind("onto", namespace)
    if include_schema:
        from repro.ontology.owlxml import ontology_to_graph
        graph = ontology_to_graph(ontology, include_individuals=False)
    else:
        graph = Graph(namespace_manager=manager)
    seen: set[str] = set()
    for entity in entities:
        for individual in entity.all_individuals():
            if individual.identifier in seen:
                continue
            seen.add(individual.identifier)
            graph.update(individual_triples(namespace, individual))
    return graph


# -- the graph serializers (rdf/rdfxml.py, rdf/turtle.py, rdf/ntriples.py)

class RdfXmlSerializer:
    """Serialize a :class:`Graph` to an RDF/XML string."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._manager = graph.namespace_manager

    def serialize(self) -> str:
        """Render the graph as an RDF/XML document string."""
        root = Element("rdf:RDF", namespace=_RDF_NS)
        used_prefixes = {"rdf"}
        body_nodes: list[Element] = []

        subjects = sorted(
            {t.subject for t in self._graph},
            key=lambda s: (isinstance(s, BlankNode), str(s)))
        described_inline: set[Subject] = set()
        for subject in subjects:
            if subject in described_inline:
                continue
            node = self._describe(subject, used_prefixes)
            body_nodes.append(node)

        for prefix, base in sorted(self._manager.namespaces()):
            if prefix in used_prefixes:
                root.attributes[f"xmlns:{prefix}"] = base
        root.attributes.setdefault("xmlns:rdf", _RDF_NS)
        for node in body_nodes:
            root.append(node)
        return serialize_xml(Document(root))

    def _qname(self, iri: IRI, used_prefixes: set[str]) -> str | None:
        compact = self._manager.compact(iri)
        if compact is None or compact.endswith(":"):
            return None
        prefix = compact.split(":", 1)[0]
        used_prefixes.add(prefix)
        return compact

    def _describe(self, subject: Subject, used_prefixes: set[str]) -> Element:
        triples = sorted(self._graph.triples(subject, None, None),
                         key=lambda t: (t.predicate.value, t.object.n3()))
        type_iri: IRI | None = None
        for triple in triples:
            if triple.predicate == RDF.type and isinstance(triple.object, IRI):
                qname = self._qname(triple.object, used_prefixes)
                if qname is not None:
                    type_iri = triple.object
                    break

        if type_iri is not None:
            tag = self._qname(type_iri, used_prefixes)
            node = Element(tag or "rdf:Description")
        else:
            node = Element("rdf:Description")

        if isinstance(subject, IRI):
            node.attributes["rdf:about"] = subject.value
        else:
            node.attributes["rdf:nodeID"] = subject.label

        for triple in triples:
            if triple.predicate == RDF.type and triple.object == type_iri:
                continue
            node.append(self._property(triple.predicate, triple.object,
                                       used_prefixes))
        return node

    def _property(self, predicate: IRI, obj: Object,
                  used_prefixes: set[str]) -> Element:
        tag = self._qname(predicate, used_prefixes)
        if tag is None:
            raise RdfError(
                f"cannot serialize predicate {predicate} to RDF/XML: no "
                "namespace prefix is bound for it")
        element = Element(tag)
        if isinstance(obj, IRI):
            element.attributes["rdf:resource"] = obj.value
        elif isinstance(obj, BlankNode):
            element.attributes["rdf:nodeID"] = obj.label
        else:
            if obj.datatype is not None:
                element.attributes["rdf:datatype"] = obj.datatype.value
            if obj.language is not None:
                element.attributes["xml:lang"] = obj.language
            element.append_text(obj.lexical)
        return element


def serialize_rdfxml(graph: Graph) -> str:
    """Serialize ``graph`` to RDF/XML."""
    return RdfXmlSerializer(graph).serialize()


def serialize_turtle(graph: Graph) -> str:
    """Render ``graph`` as a Turtle document grouped by subject."""
    manager = graph.namespace_manager
    lines: list[str] = []
    for prefix, base in manager.namespaces():
        lines.append(f"@prefix {prefix}: <{base}> .")
    if lines:
        lines.append("")

    def term_text(term) -> str:
        if isinstance(term, IRI):
            qname = manager.compact(term)
            return qname if qname is not None else term.n3()
        if isinstance(term, Literal) and term.datatype is not None:
            qname = manager.compact(term.datatype)
            if qname is not None:
                plain = Literal(term.lexical)
                return f"{plain.n3()}^^{qname}"
        return term.n3()

    by_subject: dict[Subject, dict[IRI, list[Object]]] = {}
    for triple in graph:
        by_subject.setdefault(triple.subject, {}).setdefault(
            triple.predicate, []).append(triple.object)

    def subject_key(subject: Subject) -> tuple[int, str]:
        return (0 if isinstance(subject, IRI) else 1, str(subject))

    for subject in sorted(by_subject, key=subject_key):
        predicates = by_subject[subject]
        chunks: list[str] = []
        ordered = sorted(predicates, key=lambda p: (p != _RDF_TYPE, p.value))
        for predicate in ordered:
            pred_text = "a" if predicate == _RDF_TYPE else term_text(predicate)
            objects = sorted(predicates[predicate], key=lambda o: o.n3())
            obj_text = ", ".join(term_text(o) for o in objects)
            chunks.append(f"    {pred_text} {obj_text}")
        body = " ;\n".join(chunks)
        lines.append(f"{term_text(subject)}\n{body} .")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def serialize_ntriples(graph: Graph) -> str:
    """One ``subject predicate object .`` line per triple, sorted."""
    return "".join(sorted(triple.n3() + "\n" for triple in graph))


def render_entities_2_26(schema, entities, format: str = "owl") -> str:
    """The ``owl``, ``turtle`` and ``ntriples`` branches of 2.26's
    ``render_entities``."""
    if format == "owl":
        return serialize_rdfxml(entities_to_graph(schema, entities))
    if format == "turtle":
        return serialize_turtle(entities_to_graph(schema, entities))
    if format == "ntriples":
        return serialize_ntriples(entities_to_graph(schema, entities))
    raise ValueError(format)
