"""OWL import/export for ontologies and their individuals.

The middleware "wraps the result in OWL format" (paper section 1); this
module converts between the in-memory :class:`Ontology` model and an RDF
graph using the OWL vocabulary, serialized as RDF/XML (the W3C exchange
syntax of 2004-era OWL) or Turtle.

Schema terms map as:

* class → ``owl:Class`` with ``rdfs:subClassOf``;
* datatype property → ``owl:DatatypeProperty`` with ``rdfs:domain`` /
  ``rdfs:range`` (XSD) and ``owl:FunctionalProperty`` when functional;
* object property → ``owl:ObjectProperty`` with domain/range;
* individual → a typed node with one triple per attribute value and one
  per object-property link.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import OntologyError
from ..rdf.graph import Graph
from ..rdf.namespace import OWL, RDF, RDFS, XSD, Namespace, NamespaceManager
from ..rdf.rdfxml import parse_rdfxml, serialize_rdfxml
from ..rdf.terms import IRI, Literal, Triple, python_to_literal
from ..rdf.turtle import parse_turtle, serialize_turtle
from .model import Individual, Ontology


def ontology_to_graph(ontology: Ontology, *, include_individuals: bool = True,
                      prefix: str = "onto") -> Graph:
    """Render the ontology (schema and, optionally, individuals) as RDF."""
    manager = NamespaceManager()
    namespace = Namespace(ontology.base_iri)
    manager.bind(prefix, namespace)
    graph = Graph(namespace_manager=manager)

    ontology_iri = IRI(ontology.base_iri.rstrip("#/"))
    graph.add(ontology_iri, RDF.type, OWL.Ontology)
    graph.add(ontology_iri, RDFS.label, Literal(ontology.name))

    for cls in ontology.classes():
        class_iri = namespace[cls.name]
        graph.add(class_iri, RDF.type, OWL.Class)
        if cls.parent is not None:
            graph.add(class_iri, RDFS.subClassOf, namespace[cls.parent])
        if cls.label:
            graph.add(class_iri, RDFS.label, Literal(cls.label))
        for attr in cls.attributes.values():
            prop_iri = namespace[attr.name]
            graph.add(prop_iri, RDF.type, OWL.DatatypeProperty)
            graph.add(prop_iri, RDFS.domain, class_iri)
            graph.add(prop_iri, RDFS.range, XSD[attr.range])
            if attr.functional:
                graph.add(prop_iri, RDF.type, OWL.FunctionalProperty)
            if attr.label:
                graph.add(prop_iri, RDFS.label, Literal(attr.label))
        for prop in cls.object_properties.values():
            prop_iri = namespace[prop.name]
            graph.add(prop_iri, RDF.type, OWL.ObjectProperty)
            graph.add(prop_iri, RDFS.domain, class_iri)
            graph.add(prop_iri, RDFS.range, namespace[prop.range])
            if prop.functional:
                graph.add(prop_iri, RDF.type, OWL.FunctionalProperty)

    if include_individuals:
        for individual in ontology.individuals():
            graph.update(individual_triples(namespace, individual))
    return graph


def individual_triples(namespace: Namespace,
                       individual: Individual) -> Iterator[Triple]:
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


def serialize_ontology(ontology: Ontology, format: str = "rdfxml",
                       *, include_individuals: bool = True) -> str:
    """Serialize to ``rdfxml`` (default) or ``turtle``."""
    graph = ontology_to_graph(ontology, include_individuals=include_individuals)
    if format == "rdfxml":
        return serialize_rdfxml(graph)
    if format == "turtle":
        return serialize_turtle(graph)
    raise OntologyError(f"unsupported OWL serialization format: {format!r}")


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

def graph_to_ontology(graph: Graph, name: str,
                      base_iri: str | None = None) -> Ontology:
    """Rebuild an :class:`Ontology` from OWL triples.

    Only terms inside ``base_iri`` are imported (other vocabularies in the
    document are ignored).  When ``base_iri`` is omitted it is inferred from
    the ``owl:Ontology`` node or, failing that, the first ``owl:Class``.
    """
    if base_iri is None:
        base_iri = _infer_base(graph)
    ontology = Ontology(name, base_iri)
    namespace = Namespace(ontology.base_iri)

    def local(iri: IRI) -> str | None:
        if iri.value.startswith(ontology.base_iri):
            return iri.value[len(ontology.base_iri):]
        return None

    # Pass 1: classes (topologically, parents before children).
    class_parent: dict[str, str | None] = {}
    for subject in graph.subjects(RDF.type, OWL.Class):
        if not isinstance(subject, IRI):
            continue
        class_name = local(subject)
        if class_name is None:
            continue
        parent_iri = next(iter(graph.objects(subject, RDFS.subClassOf)), None)
        parent = local(parent_iri) if isinstance(parent_iri, IRI) else None
        class_parent[class_name] = parent
    remaining = dict(class_parent)
    while remaining:
        progress = False
        for class_name, parent in list(remaining.items()):
            if parent is None or ontology.has_class(parent):
                label_lit = next(
                    (o for o in graph.objects(namespace[class_name], RDFS.label)
                     if isinstance(o, Literal)), None)
                ontology.add_class(class_name,
                                   parent if parent in class_parent else None,
                                   label_lit.lexical if label_lit else None)
                del remaining[class_name]
                progress = True
        if not progress:
            raise OntologyError(
                f"cannot order classes (cycle or missing parent): "
                f"{sorted(remaining)}")

    # Pass 2: properties.
    functional = set(graph.subjects(RDF.type, OWL.FunctionalProperty))
    for subject in graph.subjects(RDF.type, OWL.DatatypeProperty):
        if not isinstance(subject, IRI):
            continue
        prop_name = local(subject)
        if prop_name is None:
            continue
        domain = next(iter(graph.objects(subject, RDFS.domain)), None)
        range_iri = next(iter(graph.objects(subject, RDFS.range)), None)
        domain_name = local(domain) if isinstance(domain, IRI) else None
        if domain_name is None or not ontology.has_class(domain_name):
            continue
        range_name = (range_iri.local_name
                      if isinstance(range_iri, IRI) else "string")
        ontology.add_attribute(domain_name, prop_name, range_name,
                               functional=subject in functional)
    for subject in graph.subjects(RDF.type, OWL.ObjectProperty):
        if not isinstance(subject, IRI):
            continue
        prop_name = local(subject)
        if prop_name is None:
            continue
        domain = next(iter(graph.objects(subject, RDFS.domain)), None)
        range_iri = next(iter(graph.objects(subject, RDFS.range)), None)
        domain_name = local(domain) if isinstance(domain, IRI) else None
        range_name = local(range_iri) if isinstance(range_iri, IRI) else None
        if (domain_name and range_name and ontology.has_class(domain_name)
                and ontology.has_class(range_name)):
            ontology.add_object_property(domain_name, prop_name, range_name,
                                         functional=subject in functional)

    # Pass 3: individuals (typed by an imported class).
    imported_classes = set(ontology.class_names())
    links_pending: list[tuple[Individual, str, str]] = []
    for class_name in imported_classes:
        for subject in graph.subjects(RDF.type, namespace[class_name]):
            if not isinstance(subject, IRI):
                continue
            identifier = local(subject)
            if identifier is None or identifier == class_name:
                continue
            try:
                individual = ontology.add_individual(identifier, class_name)
            except OntologyError:
                continue  # typed with several classes; keep the first
            for triple in graph.triples(subject, None, None):
                prop_name = local(triple.predicate)
                if prop_name is None or triple.predicate == RDF.type:
                    continue
                if isinstance(triple.object, Literal):
                    existing = individual.values.get(prop_name)
                    value = triple.object.to_python()
                    if existing is None:
                        individual.values[prop_name] = value
                    elif isinstance(existing, list):
                        existing.append(value)
                    else:
                        individual.values[prop_name] = [existing, value]
                elif isinstance(triple.object, IRI):
                    target = local(triple.object)
                    if target is not None:
                        links_pending.append((individual, prop_name, target))
    for individual, prop_name, target in links_pending:
        try:
            individual.link(prop_name, ontology.individual(target))
        except OntologyError:
            pass  # dangling reference: target not materialized as individual
    return ontology


def _infer_base(graph: Graph) -> str:
    for subject in graph.subjects(RDF.type, OWL.Ontology):
        if isinstance(subject, IRI):
            return subject.value + "#"
    for subject in graph.subjects(RDF.type, OWL.Class):
        if isinstance(subject, IRI) and subject.namespace_part:
            return subject.namespace_part
    raise OntologyError("cannot infer ontology base IRI from graph")


def parse_ontology(text: str, name: str, format: str = "rdfxml",
                   *, base_iri: str | None = None) -> Ontology:
    """Parse an OWL document into an :class:`Ontology`."""
    if format == "rdfxml":
        graph = parse_rdfxml(text)
    elif format == "turtle":
        graph = parse_turtle(text)
    else:
        raise OntologyError(f"unsupported OWL format: {format!r}")
    return graph_to_ontology(graph, name, base_iri)
