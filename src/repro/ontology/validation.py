"""Validation of individuals against the ontology schema.

The paper argues manual mapping "offers the highest degree of data
extraction accuracy and domain consistency" (section 2.3); this module is
the enforcement side of that claim — every individual the instance
generator produces can be checked against the schema before serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Individual, Ontology
from .reasoner import Reasoner
from ..errors import ValidationError


@dataclass
class ValidationReport:
    """Accumulated validation problems; empty means valid."""

    problems: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """True when no problems were recorded."""
        return not self.problems

    def add(self, message: str) -> None:
        """Record one validation problem."""
        self.problems.append(message)


def validate_individual(ontology: Ontology, individual: Individual,
                        *, reasoner: Reasoner | None = None) -> ValidationReport:
    """Check one individual against the schema.

    Verifies: the class exists; every value belongs to a declared (possibly
    inherited) attribute; values match the declared XSD range; functional
    attributes are single-valued; links target declared object properties
    and range-compatible individuals.  Every check runs for every
    individual; only the class's attribute / object-property tables come
    from ``reasoner``, so pass one reasoner when validating many.
    """
    report = ValidationReport()
    reasoner = reasoner or Reasoner(ontology)
    if not ontology.has_class(individual.class_name):
        report.add(f"individual {individual.identifier!r} has unknown class "
                   f"{individual.class_name!r}")
        return report

    declared = reasoner.attributes(individual.class_name)
    for name, value in individual.values.items():
        entry = declared.get(name)
        if entry is None:
            report.add(f"{individual.identifier}: undeclared attribute {name!r} "
                       f"for class {individual.class_name!r}")
            continue
        prop, coerce = entry
        candidates = value if isinstance(value, list) else [value]
        if prop.functional and isinstance(value, list) and len(value) > 1:
            report.add(f"{individual.identifier}: functional attribute {name!r} "
                       f"has {len(value)} values")
        for item in candidates:
            try:
                coerce(item, name)
            except ValidationError as exc:
                report.add(f"{individual.identifier}: {exc}")

    for problem in link_problems(
            reasoner, individual.class_name,
            {name: [target.class_name for target in targets]
             for name, targets in individual.links.items()}):
        report.add(f"{individual.identifier}: {problem}")
    return report


def link_problems(reasoner: Reasoner, class_name: str,
                  links: dict[str, list[str]]) -> list[str]:
    """What is wrong with the links (object property name -> target class
    names) of an individual of ``class_name``, each problem without the
    ``"<identifier>: "`` it is reported under.  The classes decide it, not
    the individuals, so the instance generator asks once per record shape
    rather than once per individual."""
    ontology = reasoner.ontology
    problems: list[str] = []
    object_props = reasoner.object_properties(class_name)
    for name, targets in links.items():
        prop = object_props.get(name)
        if prop is None:
            problems.append(f"undeclared object property {name!r} for "
                            f"class {class_name!r}")
            continue
        if prop.functional and len(targets) > 1:
            problems.append(f"functional object property {name!r} has "
                            f"{len(targets)} targets")
        for target in targets:
            if not ontology.has_class(target):
                problems.append(f"link {name!r} targets unknown class "
                                f"{target!r}")
            elif not reasoner.is_subclass(target, prop.range):
                problems.append(f"link {name!r} targets {target!r}, "
                                f"expected {prop.range!r}")
    return problems


def validate_ontology(ontology: Ontology) -> ValidationReport:
    """Check every individual currently held by the ontology."""
    report = ValidationReport()
    reasoner = Reasoner(ontology)
    for individual in ontology.individuals():
        sub_report = validate_individual(ontology, individual,
                                         reasoner=reasoner)
        report.problems.extend(sub_report.problems)
    return report
