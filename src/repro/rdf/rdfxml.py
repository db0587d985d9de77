"""RDF/XML serializer and parser.

RDF/XML is the concrete syntax OWL documents were exchanged in at the time
of the paper, so this is the default output format of the Instance
Generator.  The serializer emits typed node elements (one per subject, using
the subject's ``rdf:type`` when it can be compacted to a qualified name) and
property elements with ``rdf:resource`` references, ``rdf:datatype`` typed
literals or ``xml:lang`` tagged literals.  The parser accepts the striped
syntax produced here plus the common authoring variants (``rdf:Description``
nodes, ``rdf:ID``, ``rdf:nodeID``, nested node elements).
"""

from __future__ import annotations

from ..errors import RdfError, RdfSyntaxError
from ..xmlkit import Element, parse_xml
from ..xmlkit.serializer import escape_attr, escape_text
from .graph import Descriptions, Graph, ordered_objects, subject_order
from .namespace import RDF, RDF_TYPE, NamespaceManager
from .terms import IRI, BlankNode, Literal, Subject, literal_parts

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

def write_rdfxml(manager: NamespaceManager,
                 descriptions: Descriptions) -> str:
    """RDF/XML text of ``descriptions``: a node per subject, typed by its
    first ``rdf:type`` with a qualified name, properties in predicate then
    N-Triples order; only prefixes some tag uses are declared."""
    qnames: dict[str, tuple[str | None, str]] = {}
    used = {"rdf"}

    def qname(iri: IRI) -> str | None:
        known = qnames.get(iri.value)
        if known is None:
            name = manager.compact(iri)
            known = qnames[iri.value] = (
                (None, "rdf") if name is None or name.endswith(":")
                else (name, name.split(":", 1)[0]))
        used.add(known[1])
        return known[0]

    body: list[str] = []
    for subject, predicates in sorted(descriptions, key=subject_order):
        predicates = sorted(predicates, key=lambda pair: pair[0].value)
        type_iri = next((obj for predicate, objects in predicates
                         if predicate.value == RDF_TYPE.value
                         for obj in ordered_objects(objects)
                         if isinstance(obj, IRI) and qname(obj)), None)
        tag = qname(type_iri) if type_iri else "rdf:Description"
        node = (f'{tag} rdf:about="{escape_attr(subject.value)}"'
                if isinstance(subject, IRI)
                else f'{tag} rdf:nodeID="{escape_attr(subject.label)}"')
        properties = []
        for predicate, objects in predicates:
            objects = ordered_objects(objects)
            if type_iri is not None and predicate.value == RDF_TYPE.value:
                objects.remove(type_iri)  # the node's tag says it
            if not objects:
                continue
            name = qname(predicate)
            if name is None:
                raise RdfError(
                    f"cannot serialize predicate {predicate} to RDF/XML: no "
                    "namespace prefix is bound for it")
            properties += [_property(name, obj) for obj in objects]
        body += ([f"  <{node}>", *properties, f"  </{tag}>"] if properties
                 else [f"  <{node}/>"])
    declared = [(prefix, base) for prefix, base in sorted(manager.namespaces())
                if prefix in used]
    if "rdf" not in dict(declared):
        declared.append(("rdf", _RDF_NS))
    root = "rdf:RDF" + "".join(f' xmlns:{prefix}="{escape_attr(base)}"'
                               for prefix, base in declared)
    lines = [f"<{root}>", *body, "</rdf:RDF>"] if body else [f"<{root}/>"]
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + "\n".join(lines) + "\n"


def _property(tag: str, obj) -> str:
    if type(obj) is str:  # the commonest object: a plain literal
        return f"    <{tag}>{escape_text(obj)}</{tag}>"
    if isinstance(obj, IRI):
        return f'    <{tag} rdf:resource="{escape_attr(obj.value)}"/>'
    if isinstance(obj, BlankNode):
        return f'    <{tag} rdf:nodeID="{escape_attr(obj.label)}"/>'
    lexical, datatype, language = literal_parts(obj)
    attributes = ""
    if datatype is not None:
        attributes = f' rdf:datatype="{escape_attr(datatype.value)}"'
    if language is not None:
        attributes += f' xml:lang="{escape_attr(language)}"'
    return f"    <{tag}{attributes}>{escape_text(lexical)}</{tag}>"


def serialize_rdfxml(graph: Graph) -> str:
    """Serialize ``graph`` to RDF/XML."""
    return write_rdfxml(graph.namespace_manager, graph.descriptions())


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class RdfXmlParser:
    """Parse an RDF/XML document into a :class:`Graph`."""

    def __init__(self) -> None:
        self._bnodes: dict[str, BlankNode] = {}

    def parse(self, text: str, graph: Graph | None = None) -> Graph:
        """Parse RDF/XML text into ``graph`` (or a fresh one)."""
        document = parse_xml(text)
        graph = graph if graph is not None else Graph(
            namespace_manager=NamespaceManager())
        self._graph = graph
        self._register_namespaces(document.root)
        root = document.root
        if root.namespace == _RDF_NS and self._local(root) == "RDF":
            for child in root.element_children():
                self._node_element(child)
        else:
            self._node_element(root)
        return graph

    def _register_namespaces(self, root: Element) -> None:
        for name, value in root.attributes.items():
            if name.startswith("xmlns:"):
                try:
                    self._graph.namespace_manager.bind(name[6:], value)
                except RdfError:
                    pass  # conflicting redeclarations keep the first binding

    @staticmethod
    def _local(element: Element) -> str:
        return element.name.rpartition(":")[2]

    def _resolve_name(self, element: Element) -> IRI:
        if element.namespace:
            return IRI(element.namespace + self._local(element))
        raise RdfSyntaxError(
            f"element {element.name!r} has no namespace; RDF/XML requires "
            "namespace-qualified names")

    def _subject_of(self, element: Element) -> Subject:
        about = element.get("rdf:about")
        if about is not None:
            return IRI(about)
        rdf_id = element.get("rdf:ID")
        if rdf_id is not None:
            return IRI("#" + rdf_id)
        node_id = element.get("rdf:nodeID")
        if node_id is not None:
            return self._bnode(node_id)
        return BlankNode()

    def _bnode(self, label: str) -> BlankNode:
        if label not in self._bnodes:
            self._bnodes[label] = BlankNode()
        return self._bnodes[label]

    def _node_element(self, element: Element) -> Subject:
        subject = self._subject_of(element)
        name = self._resolve_name(element)
        if not (element.namespace == _RDF_NS and self._local(element) == "Description"):
            self._graph.add(subject, RDF.type, name)
        # Attribute shorthand: non-rdf attributes are literal properties.
        for attr, value in element.attributes.items():
            if attr.startswith(("rdf:", "xmlns", "xml:")):
                continue
            prefix, _, local = attr.rpartition(":")
            if prefix:
                predicate = self._graph.namespace_manager.expand(attr)
                self._graph.add(subject, predicate, Literal(value))
        for child in element.element_children():
            self._property_element(subject, child)
        return subject

    def _property_element(self, subject: Subject, element: Element) -> None:
        predicate = self._resolve_name(element)
        resource = element.get("rdf:resource")
        if resource is not None:
            self._graph.add(subject, predicate, IRI(resource))
            return
        node_id = element.get("rdf:nodeID")
        if node_id is not None:
            self._graph.add(subject, predicate, self._bnode(node_id))
            return
        children = element.element_children()
        if children:
            if len(children) != 1:
                raise RdfSyntaxError(
                    f"property element {element.name!r} must contain exactly "
                    "one node element")
            nested = self._node_element(children[0])
            self._graph.add(subject, predicate, nested)
            return
        datatype = element.get("rdf:datatype")
        language = element.get("xml:lang")
        lexical = element.text_content()
        if datatype is not None:
            literal = Literal(lexical, IRI(datatype))
        elif language is not None:
            literal = Literal(lexical, language=language)
        else:
            literal = Literal(lexical)
        self._graph.add(subject, predicate, literal)


def parse_rdfxml(text: str) -> Graph:
    """Parse an RDF/XML document into a fresh graph."""
    return RdfXmlParser().parse(text)
