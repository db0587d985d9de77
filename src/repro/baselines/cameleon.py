"""A Caméléon-style declarative wrapper engine.

Models the Caméléon Web Wrapper Engine of the paper's related work
(section 4): "capable of extracting from both text and binary formats.
The engine provides output in XML."  Caméléon wrappers are *spec files* —
per attribute, a begin/end delimiter pair and a pattern — rather than
imperative code.  This engine accepts such specs over web pages *and*
plain-text files (its advantage over W4F), but like the original it has
no ontology, no typing and no cross-source integration semantics.

Spec format (one attribute per block)::

    #ATTRIBUTE brand
    #BEGIN <td class="brand">
    #END </td>
    #PATTERN (.*?)

``#BEGIN``/``#END`` anchor the search region; ``#PATTERN`` (optional,
default ``(.*?)``) is applied between the anchors, group 1 extracted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import S2SError
from ..sources.textfiles.store import TextFileStore
from ..sources.web.site import SimulatedWeb
from ..xmlkit import Document, Element, serialize_xml


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute's declarative extraction spec."""

    name: str
    begin: str
    end: str
    pattern: str = "(.*?)"

    def compiled(self) -> re.Pattern:
        """The spec compiled to a regular expression."""
        body = self.pattern if self.pattern else "(.*?)"
        try:
            return re.compile(
                re.escape(self.begin) + body + re.escape(self.end),
                re.DOTALL)
        except re.error as exc:
            raise S2SError(
                f"invalid Caméléon pattern for {self.name!r}: {exc}") from exc


def parse_spec(text: str) -> list[AttributeSpec]:
    """Parse a Caméléon spec file into attribute specs."""
    specs: list[AttributeSpec] = []
    name: str | None = None
    begin: str | None = None
    end: str | None = None
    pattern = "(.*?)"

    def flush() -> None:
        nonlocal name, begin, end, pattern
        if name is not None:
            if begin is None or end is None:
                raise S2SError(
                    f"spec for {name!r} is missing #BEGIN or #END")
            specs.append(AttributeSpec(name, begin, end, pattern))
        name, begin, end, pattern = None, None, None, "(.*?)"

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("#ATTRIBUTE"):
            flush()
            name = line[len("#ATTRIBUTE"):].strip()
            if not name:
                raise S2SError(f"line {line_number}: empty attribute name")
        elif line.startswith("#BEGIN"):
            begin = line[len("#BEGIN"):].strip()
        elif line.startswith("#END"):
            end = line[len("#END"):].strip()
        elif line.startswith("#PATTERN"):
            pattern = line[len("#PATTERN"):].strip()
        else:
            raise S2SError(f"line {line_number}: unrecognized spec line "
                           f"{line!r}")
    flush()
    if not specs:
        raise S2SError("empty Caméléon spec")
    return specs


class CameleonWrapper:
    """Runs declarative specs over web pages and text files."""

    def __init__(self, web: SimulatedWeb | None = None,
                 files: TextFileStore | None = None) -> None:
        self.web = web
        self.files = files
        self._specs: list[AttributeSpec] = []

    def load_spec(self, text: str) -> None:
        """Parse and install a spec file."""
        self._specs = parse_spec(text)

    # -- extraction ------------------------------------------------------

    def _content(self, locator: str) -> str:
        if locator.startswith(("http://", "https://")):
            if self.web is None:
                raise S2SError("no web attached to this wrapper")
            return self.web.fetch(locator)
        if self.files is None:
            raise S2SError("no file store attached to this wrapper")
        return self.files.read(locator)

    def extract(self, locator: str) -> dict[str, list[str]]:
        """Run every spec against a URL or file path."""
        if not self._specs:
            raise S2SError("load_spec() before extracting")
        content = self._content(locator)
        return {
            spec.name: [match.group(1).strip()
                        for match in spec.compiled().finditer(content)]
            for spec in self._specs
        }

    def extract_xml(self, locator: str) -> str:
        """The Caméléon deliverable: results as an XML document."""
        extracted = self.extract(locator)
        count = max((len(values) for values in extracted.values()),
                    default=0)
        root = Element("cameleon-result", {"source": locator})
        for index in range(count):
            record = root.subelement("record")
            for name in sorted(extracted):
                values = extracted[name]
                if index < len(values):
                    record.subelement(name, text=values[index])
        return serialize_xml(Document(root))
