"""Semi-automatic mapping suggestion.

The paper is explicit that mapping is manual and "time consuming"
(§2.3); the obvious follow-on (future work in spirit) is *assisted*
authoring: introspect each source's native field names, score them
against the ontology's unmapped attributes by lexical similarity, and
propose ready-to-register mapping entries.  A human still confirms every
suggestion — preserving the paper's accuracy argument — but reviews a
ranked list instead of reading source schemas cold.

Experiment E12 measures top-1 suggestion accuracy against the scenario
generator's ground truth under each heterogeneity level.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

from ...errors import S2SError
from ...htmlkit import parse_html
from ...ids import AttributePath
from ...sources.base import DataSource
from .attributes import MappingEntry
from .rules import ExtractionRule

#: Cross-language synonym hints for B2B product vocabulary.  Keys and
#: values are normalized tokens; a match via this table scores as if the
#: tokens were equal.
SYNONYMS: dict[str, set[str]] = {
    "brand": {"marke", "manufacturer", "maker", "make"},
    "model": {"modell", "reference", "ref"},
    "case": {"gehaeuse", "housing", "casing"},
    "price": {"preis", "list_price", "cost", "amount"},
    "provider": {"lieferant", "vendor", "supplier"},
    "movement": {"werk", "caliber", "calibre"},
    "water": {"wasserdichte", "wr"},
    "resistance": {"rating"},
    "country": {"land", "origin"},
    "name": {"title"},
}


def _tokens(text: str) -> list[str]:
    return [token for token in re.split(r"[^a-z0-9]+", text.lower())
            if token]


def _synonym_hit(a: str, b: str) -> bool:
    if b in SYNONYMS.get(a, ()) or a in SYNONYMS.get(b, ()):
        return True
    return False


def similarity(attribute: str, field_name: str) -> float:
    """Score in [0, 1]: token overlap (with synonyms) + char similarity."""
    attribute_tokens = _tokens(attribute)
    field_tokens = _tokens(field_name)
    if not attribute_tokens or not field_tokens:
        return 0.0
    hits = 0
    for a_token in attribute_tokens:
        for f_token in field_tokens:
            if a_token == f_token or _synonym_hit(a_token, f_token):
                hits += 1
                break
    token_score = hits / max(len(attribute_tokens), len(field_tokens))
    char_score = difflib.SequenceMatcher(
        None, attribute.lower(), field_name.lower()).ratio()
    return 0.7 * token_score + 0.3 * char_score


@dataclass(frozen=True)
class FieldDescriptor:
    """One introspected native field of a source."""

    source_id: str
    source_type: str
    name: str
    rule_code: str  # ready-to-use extraction rule for this field
    rule_language: str


@dataclass(frozen=True)
class MappingSuggestion:
    """A ranked candidate mapping awaiting human confirmation."""

    attribute: AttributePath
    descriptor: FieldDescriptor
    score: float

    def __str__(self) -> str:
        return (f"{self.attribute} <- {self.descriptor.source_id}."
                f"{self.descriptor.name} (score {self.score:.2f})")


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------

def discover_fields(source: DataSource) -> list[FieldDescriptor]:
    """Enumerate a source's native fields with ready extraction rules."""
    if source.source_type == "database":
        return _discover_database(source)
    if source.source_type == "xml":
        return _discover_xml(source)
    if source.source_type == "webpage":
        return _discover_web(source)
    if source.source_type == "textfile":
        return _discover_text(source)
    raise S2SError(
        f"no field discovery for source type {source.source_type!r}")


def _discover_database(source) -> list[FieldDescriptor]:
    descriptors = []
    for table_name in source.database.table_names():
        table = source.database.require_table(table_name)
        for column in table.column_names():
            descriptors.append(FieldDescriptor(
                source.source_id, "database", column,
                f"SELECT {column} FROM {table_name}", "sql"))
    return descriptors


def _discover_xml(source) -> list[FieldDescriptor]:
    descriptors = []
    seen: set[str] = set()
    names = ([source.default_document] if source.default_document
             else source.store.names())
    for doc_name in names:
        document = source.store.get(doc_name)
        for element in document.iter():
            children = element.element_children()
            if children or not element.text_content().strip():
                continue  # only leaf elements carrying text
            if element.name in seen:
                continue
            seen.add(element.name)
            prefix = "" if source.default_document else f"doc:{doc_name} "
            descriptors.append(FieldDescriptor(
                source.source_id, "xml", element.name,
                f"{prefix}//{element.name}", "xpath"))
    return descriptors


def _discover_web(source) -> list[FieldDescriptor]:
    markup = source.web.fetch(source.url)
    document = parse_html(markup)
    descriptors = []
    seen: set[str] = set()
    for node in document.root.iter():
        marker = node.get("class") or node.get("id")
        if not marker or marker in seen:
            continue
        if node.tag not in ("td", "span", "div", "p", "li"):
            continue
        seen.add(marker)
        rule = (
            'var P = GetURL(SourceURL());\n'
            f'var m = Str_Search(Text(P), `<{node.tag}[^>]*'
            f'(?:class|id)="{re.escape(marker)}"[^>]*>([^<]*)</{node.tag}>`);\n'
            'var out = [];\n'
            'each g in m { out = Append(out, g[1]); }\n'
            'return out;\n')
        descriptors.append(FieldDescriptor(
            source.source_id, "webpage", marker, rule, "webl"))
    return descriptors


def _discover_text(source) -> list[FieldDescriptor]:
    descriptors = []
    seen: set[str] = set()
    paths = ([source.default_file] if source.default_file
             else source.store.paths())
    for path in paths:
        content = source.store.read(path)
        prefix = "" if source.default_file else f"file:{path} "
        for match in re.finditer(r"^([A-Za-z_][A-Za-z0-9_\-]*)=",
                                 content, re.MULTILINE):
            key = match.group(1)
            if key in seen:
                continue
            seen.add(key)
            descriptors.append(FieldDescriptor(
                source.source_id, "textfile", key,
                rf"{prefix}^{key}=(.*)$", "regex"))
    return descriptors


# ---------------------------------------------------------------------------
# Suggestion
# ---------------------------------------------------------------------------

class MappingSuggester:
    """Ranks source fields against unmapped ontology attributes."""

    def __init__(self, registrar, *, threshold: float = 0.35) -> None:
        self.registrar = registrar
        self.threshold = threshold

    def suggest_for_source(self, source: DataSource,
                           *, attributes: list[AttributePath] | None = None,
                           top_k: int = 1) -> list[MappingSuggestion]:
        """Top-k candidate mappings per attribute for one source.

        ``attributes`` defaults to the schema's currently unmapped paths;
        pass an explicit list to (re-)suggest for mapped ones too."""
        descriptors = discover_fields(source)
        if attributes is None:
            attributes = self.registrar.unregistered_paths()
        suggestions: list[MappingSuggestion] = []
        for path in attributes:
            scored = sorted(
                (MappingSuggestion(path, descriptor,
                                   similarity(path.attribute,
                                              descriptor.name))
                 for descriptor in descriptors),
                key=lambda s: -s.score)
            suggestions.extend(s for s in scored[:top_k]
                               if s.score >= self.threshold)
        return suggestions

    def accept(self, suggestion: MappingSuggestion,
               *, transform: str | None = None,
               replace: bool = False) -> MappingEntry:
        """Human confirmation: validate and register the suggestion."""
        return self.registrar.register(
            suggestion.attribute,
            ExtractionRule(suggestion.descriptor.rule_language,
                           suggestion.descriptor.rule_code,
                           transform=transform),
            suggestion.descriptor.source_id, replace=replace)
