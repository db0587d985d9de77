"""Ontology object model.

An :class:`Ontology` owns a set of named classes arranged in a single
subclass hierarchy (OWL-Lite style, one superclass per class — the shape
the paper's Figure 2 example uses: ``thing ⊃ product ⊃ watch``), datatype
properties (the *attributes* the mapping module registers extraction rules
for), object properties (links between classes, e.g. every ``product`` has
a ``provider``) and individuals (the instances the extractor populates).

Names are local (``"watch"``); IRIs are derived from the ontology base IRI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import OntologyError
from ..rdf.terms import IRI

#: XSD datatypes accepted as datatype-property ranges.
XSD_TYPES = frozenset({
    "string", "integer", "decimal", "double", "float", "boolean",
    "date", "dateTime", "anyURI",
})


@dataclass
class DatatypeProperty:
    """An ontology attribute: a literal-valued property of a class."""

    name: str
    domain: str  # class name
    range: str = "string"  # XSD local name
    functional: bool = True
    label: str | None = None

    def __post_init__(self) -> None:
        if self.range not in XSD_TYPES:
            raise OntologyError(
                f"datatype property {self.name!r} has unsupported range "
                f"{self.range!r}; expected one of {sorted(XSD_TYPES)}")


@dataclass
class ObjectProperty:
    """A link between two ontology classes."""

    name: str
    domain: str
    range: str
    functional: bool = False
    label: str | None = None


@dataclass
class OntClass:
    """An ontology class with an optional superclass."""

    name: str
    parent: str | None = None
    label: str | None = None
    attributes: dict[str, DatatypeProperty] = field(default_factory=dict)
    object_properties: dict[str, ObjectProperty] = field(default_factory=dict)


@dataclass
class Individual:
    """An instance of an ontology class.

    ``values`` maps datatype-property names to literal Python values;
    ``links`` maps object-property names to lists of other individuals.
    """

    identifier: str
    class_name: str
    values: dict[str, object] = field(default_factory=dict)
    links: dict[str, list["Individual"]] = field(default_factory=dict)

    def set(self, attribute: str, value: object) -> "Individual":
        """Set one attribute value; returns self for chaining."""
        self.values[attribute] = value
        return self

    def link(self, object_property: str, target: "Individual") -> "Individual":
        """Append an object-property link; returns self for chaining."""
        self.links.setdefault(object_property, []).append(target)
        return self

    def get(self, attribute: str, default=None):
        """One attribute value, or ``default``."""
        return self.values.get(attribute, default)


class Ontology:
    """A named ontology: class hierarchy + properties + individuals."""

    def __init__(self, name: str,
                 base_iri: str = "http://example.org/s2s/ontology#") -> None:
        if not name:
            raise OntologyError("ontology name must be non-empty")
        if not base_iri.endswith(("#", "/")):
            base_iri += "#"
        self.name = name
        self.base_iri = base_iri
        self._classes: dict[str, OntClass] = {}
        self._individuals: dict[str, Individual] = {}

    # ------------------------------------------------------------------
    # Schema construction
    # ------------------------------------------------------------------

    def add_class(self, name: str, parent: str | None = None,
                  label: str | None = None) -> OntClass:
        """Declare a class, optionally under a superclass."""
        if name in self._classes:
            raise OntologyError(f"class {name!r} already defined")
        if parent is not None and parent not in self._classes:
            raise OntologyError(
                f"superclass {parent!r} of {name!r} is not defined")
        cls = OntClass(name, parent, label)
        self._classes[name] = cls
        # Reject hierarchy cycles eagerly (possible only via future mutation,
        # but ancestors() relies on acyclicity).
        self._check_acyclic(name)
        return cls

    def _check_acyclic(self, start: str) -> None:
        seen = set()
        current: str | None = start
        while current is not None:
            if current in seen:
                raise OntologyError(f"class hierarchy cycle at {current!r}")
            seen.add(current)
            current = self._classes[current].parent

    def add_attribute(self, class_name: str, name: str, range: str = "string",
                      *, functional: bool = True,
                      label: str | None = None) -> DatatypeProperty:
        """Declare a datatype property on a class."""
        cls = self.require_class(class_name)
        if name in cls.attributes:
            raise OntologyError(
                f"attribute {name!r} already defined on class {class_name!r}")
        prop = DatatypeProperty(name, class_name, range, functional, label)
        cls.attributes[name] = prop
        return prop

    def add_object_property(self, domain: str, name: str, range: str,
                            *, functional: bool = False,
                            label: str | None = None) -> ObjectProperty:
        """Declare a link between two classes."""
        domain_cls = self.require_class(domain)
        self.require_class(range)
        if name in domain_cls.object_properties:
            raise OntologyError(
                f"object property {name!r} already defined on {domain!r}")
        prop = ObjectProperty(name, domain, range, functional, label)
        domain_cls.object_properties[name] = prop
        return prop

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def require_class(self, name: str) -> OntClass:
        """Look up a class, raising when undefined."""
        cls = self._classes.get(name)
        if cls is None:
            raise OntologyError(f"class {name!r} is not defined in "
                                f"ontology {self.name!r}")
        return cls

    def has_class(self, name: str) -> bool:
        """Whether ``name`` is a defined class."""
        return name in self._classes

    def classes(self) -> Iterator[OntClass]:
        """Iterate over all class definitions."""
        return iter(self._classes.values())

    def class_names(self) -> list[str]:
        """All class names, in definition order."""
        return list(self._classes)

    def roots(self) -> list[OntClass]:
        """Classes with no superclass."""
        return [c for c in self._classes.values() if c.parent is None]

    def children_of(self, name: str) -> list[OntClass]:
        """Direct subclasses of ``name``."""
        self.require_class(name)
        return [c for c in self._classes.values() if c.parent == name]

    def ancestors(self, name: str) -> list[str]:
        """Superclass chain from the immediate parent up to the root."""
        chain: list[str] = []
        current = self.require_class(name).parent
        while current is not None:
            chain.append(current)
            current = self._classes[current].parent
        return chain

    def lineage(self, name: str) -> list[str]:
        """Root-to-class path, inclusive (used for attribute paths)."""
        return list(reversed(self.ancestors(name))) + [name]

    def iri_for_class(self, name: str) -> IRI:
        """The class's IRI under the ontology base."""
        self.require_class(name)
        return IRI(self.base_iri + name)

    # ------------------------------------------------------------------
    # Attributes (inherited view)
    # ------------------------------------------------------------------

    def own_attributes(self, class_name: str) -> list[DatatypeProperty]:
        """Attributes declared directly on the class."""
        return list(self.require_class(class_name).attributes.values())

    def all_attributes(self, class_name: str) -> list[DatatypeProperty]:
        """Attributes declared on the class or inherited from ancestors."""
        collected: dict[str, DatatypeProperty] = {}
        for cls_name in self.lineage(class_name):
            for attr in self._classes[cls_name].attributes.values():
                collected[attr.name] = attr
        return list(collected.values())

    def all_object_properties(self, class_name: str) -> list[ObjectProperty]:
        """Object properties declared on the class or inherited."""
        collected: dict[str, ObjectProperty] = {}
        for cls_name in self.lineage(class_name):
            for prop in self._classes[cls_name].object_properties.values():
                collected[prop.name] = prop
        return list(collected.values())

    def find_attribute(self, class_name: str, attribute: str) -> DatatypeProperty | None:
        """Resolve an attribute on the class or its ancestors."""
        for cls_name in reversed(self.lineage(class_name)):
            attr = self._classes[cls_name].attributes.get(attribute)
            if attr is not None:
                return attr
        return None

    # ------------------------------------------------------------------
    # Individuals
    # ------------------------------------------------------------------

    def add_individual(self, identifier: str, class_name: str,
                       values: dict[str, object] | None = None) -> Individual:
        """Create an instance of a class."""
        self.require_class(class_name)
        if identifier in self._individuals:
            raise OntologyError(f"individual {identifier!r} already exists")
        individual = Individual(identifier, class_name, dict(values or {}))
        self._individuals[identifier] = individual
        return individual

    def individual(self, identifier: str) -> Individual:
        """Look up an individual by identifier."""
        ind = self._individuals.get(identifier)
        if ind is None:
            raise OntologyError(f"individual {identifier!r} not found")
        return ind

    def individuals(self, class_name: str | None = None,
                    *, include_subclasses: bool = True) -> list[Individual]:
        """Instances of a class (optionally including subclasses)."""
        if class_name is None:
            return list(self._individuals.values())
        self.require_class(class_name)
        matched: list[Individual] = []
        for individual in self._individuals.values():
            if individual.class_name == class_name:
                matched.append(individual)
            elif include_subclasses and class_name in self.ancestors(
                    individual.class_name):
                matched.append(individual)
        return matched

    def __len__(self) -> int:
        return len(self._classes)

    def __repr__(self) -> str:
        return (f"Ontology({self.name!r}, classes={len(self._classes)}, "
                f"individuals={len(self._individuals)})")
