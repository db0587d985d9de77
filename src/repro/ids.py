"""Attribute-identifier utilities.

The S2S mapping module names every ontology attribute with a *unique
identifier* that encodes its path through the ontology class hierarchy
(paper section 2.3.1, Figure 4), e.g. ``thing.product.brand`` or
``thing.product.watch.case``.  These dotted paths keep "a notion of the
ontology hierarchy" and are what the instance generator uses to rebuild the
class structure of the output.

This module centralizes parsing, validation and manipulation of such IDs so
every component agrees on their syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MappingError

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")


@dataclass(frozen=True, slots=True)
class AttributePath:
    """A parsed dotted attribute identifier.

    ``AttributePath.parse("thing.product.brand")`` yields a path whose
    ``classes`` are ``("thing", "product")`` and whose ``attribute`` is
    ``"brand"``.
    """

    segments: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "AttributePath":
        """Parse a dotted identifier, validating each segment."""
        if not isinstance(text, str) or not text:
            raise MappingError(f"attribute id must be a non-empty string, got {text!r}")
        segments = tuple(text.split("."))
        if len(segments) < 2:
            raise MappingError(
                f"attribute id {text!r} must contain at least one class and "
                "one attribute segment (e.g. 'product.brand')")
        for segment in segments:
            if not _SEGMENT_RE.match(segment):
                raise MappingError(
                    f"invalid segment {segment!r} in attribute id {text!r}")
        return cls(segments)

    @property
    def attribute(self) -> str:
        """The final segment: the attribute name itself."""
        return self.segments[-1]

    @property
    def classes(self) -> tuple[str, ...]:
        """All segments before the attribute: the class path."""
        return self.segments[:-1]

    @property
    def leaf_class(self) -> str:
        """The class the attribute directly belongs to."""
        return self.segments[-2]

    def __str__(self) -> str:
        return ".".join(self.segments)

    def within(self, class_name: str) -> bool:
        """Return True if ``class_name`` appears anywhere on the class path."""
        return class_name in self.classes

    def child(self, segment: str) -> "AttributePath":
        """Return a new path with ``segment`` appended."""
        if not _SEGMENT_RE.match(segment):
            raise MappingError(f"invalid segment {segment!r}")
        return AttributePath(self.segments + (segment,))
