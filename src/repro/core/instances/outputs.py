"""Output adapters (paper section 2.6).

"The S2S middleware supports the output format OWL, but other outputs can
easily be adapted to export plain text to XML, and so on."  Each adapter
renders a list of assembled entities:

* ``owl`` — OWL/RDF-XML, the default (ontology instances);
* ``turtle`` — the same graph in Turtle;
* ``ntriples`` — the same graph as N-Triples lines;
* ``xml`` — plain hierarchical XML mirroring the ontology structure (the
  "direct mapping … transforming the XML structure into the ontology
  structure" the paper describes);
* ``json`` — the XML structure as JSON objects;
* ``text`` — a human-readable listing.
"""

from __future__ import annotations

import json as _json

from ...errors import InstanceGenerationError
from ...ontology.model import Individual
from ...ontology.owlxml import Vocabulary
from ...rdf.graph import Graph
from ...rdf.namespace import Namespace, NamespaceManager
from ...rdf.ntriples import write_ntriples
from ...rdf.rdfxml import write_rdfxml
from ...rdf.turtle import write_turtle
from ...xmlkit import Document, Element, serialize_xml
from ...ontology.schema import OntologySchema
from .assembly import AssembledEntity

OUTPUT_FORMATS = ("owl", "turtle", "ntriples", "xml", "json", "text")


def _vocabulary(schema: OntologySchema) -> tuple[Vocabulary,
                                                 NamespaceManager]:
    """A fresh vocabulary over the ontology's namespace, bound to the
    ``onto`` prefix an answer's RDF is written with."""
    manager = NamespaceManager()
    namespace = Namespace(schema.ontology.base_iri)
    manager.bind("onto", namespace)
    return Vocabulary(namespace), manager


def _individuals(entities: list[AssembledEntity]) -> dict:
    """Each identifier's first individual."""
    individuals: dict = {}
    for entity in entities:
        for individual in entity.all_individuals():
            individuals.setdefault(individual.identifier, individual)
    return individuals


def entities_to_graph(schema: OntologySchema,
                      entities: list[AssembledEntity],
                      *, include_schema: bool = False) -> Graph:
    """Collect all individuals of the entities into one RDF graph."""
    vocabulary, manager = _vocabulary(schema)
    if include_schema:
        from ...ontology.owlxml import ontology_to_graph
        graph = ontology_to_graph(schema.ontology, include_individuals=False)
    else:
        graph = Graph(namespace_manager=manager)
    for individual in _individuals(entities).values():
        graph.update(vocabulary.triples(individual))
    return graph


#: the RDF formats, written from the shape patterns with no graph
_RDF_WRITERS = {"owl": write_rdfxml, "turtle": write_turtle,
                "ntriples": write_ntriples}


def _individual_element(individual: Individual,
                        rendered: set[str]) -> Element:
    element = Element(individual.class_name, {"id": individual.identifier})
    rendered.add(individual.identifier)
    for name in sorted(individual.values):
        value = individual.values[name]
        items = value if isinstance(value, list) else [value]
        for item in items:
            element.subelement(name, text=_scalar_text(item))
    for name in sorted(individual.links):
        for target in individual.links[name]:
            link = element.subelement(name)
            if target.identifier in rendered:
                link.attributes["ref"] = target.identifier
            else:
                link.append(_individual_element(target, rendered))
    return element


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def render_entities(schema: OntologySchema, entities: list[AssembledEntity],
                    format: str = "owl") -> str:
    """Serialize entities in one of :data:`OUTPUT_FORMATS`."""
    if format in _RDF_WRITERS:
        vocabulary, manager = _vocabulary(schema)
        return _RDF_WRITERS[format](manager, [
            (vocabulary.iri(identifier), vocabulary.description(individual))
            for identifier, individual in _individuals(entities).items()])
    if format == "xml":
        root = Element("results", {"count": str(len(entities))})
        rendered: set[str] = set()
        for entity in entities:
            root.append(_individual_element(entity.primary, rendered))
        return serialize_xml(Document(root))
    if format == "json":
        return _json.dumps([_entity_dict(entity) for entity in entities],
                           indent=2, sort_keys=True, default=_scalar_text)
    if format == "text":
        lines: list[str] = []
        for entity in entities:
            lines.append(f"{entity.primary.class_name} "
                         f"[{entity.primary.identifier}] "
                         f"(source: {entity.source_id})")
            for name in sorted(entity.primary.values):
                lines.append(f"  {name} = "
                             f"{_scalar_text(entity.primary.values[name])}")
            for satellite in entity.satellites:
                lines.append(f"  -> {satellite.class_name} "
                             f"[{satellite.identifier}]")
                for name in sorted(satellite.values):
                    lines.append(
                        f"     {name} = "
                        f"{_scalar_text(satellite.values[name])}")
        return "\n".join(lines) + ("\n" if lines else "")
    raise InstanceGenerationError(
        f"unsupported output format {format!r}; expected one of "
        f"{OUTPUT_FORMATS}")


def _entity_dict(entity: AssembledEntity) -> dict:
    def individual_dict(individual: Individual) -> dict:
        body: dict = {"id": individual.identifier,
                      "class": individual.class_name}
        body.update({name: individual.values[name]
                     for name in sorted(individual.values)})
        for name in sorted(individual.links):
            body[name] = [individual_dict(target)
                          for target in individual.links[name]]
        return body

    record = individual_dict(entity.primary)
    record["_source"] = entity.source_id
    return record
