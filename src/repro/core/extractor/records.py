"""Raw extraction output and record correlation.

Section 2.3 of the paper distinguishes two data-source scenarios: a source
may hold *one* data record (a product page) or *n* records (a database of
watches).  An extractor returns, per attribute, the list of values found
in the source; :class:`SourceRecordSet` correlates those per-attribute
columns back into records by position — value *i* of every attribute
belongs to record *i* of the source.

Positional correlation is exact for SQL (row order is preserved across
rules with the same table scan order), for XPath over a homogeneous
document (document order), and for WebL rules written over repeating page
structure; it is the same contract wrapper systems of the period (W4F,
Caméléon) exposed.  Ragged columns — attributes yielding different counts
— indicate either optional fields or a mis-authored rule; the shorter
columns are padded with ``None`` and the event is flagged so the error
channel can report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

from ...ids import AttributePath


@dataclass
class RawFragment:
    """One attribute's extracted column from one source."""

    attribute: AttributePath
    source_id: str
    values: list[str]
    #: the source's digest of the execution that produced ``values``
    #: (e.g. the SQL plan), for the attempt span; not part of the data
    detail: dict | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SourceRecordSet:
    """All fragments from one source, aligned into records."""

    source_id: str
    fragments: list[RawFragment] = field(default_factory=list)

    def add(self, fragment: RawFragment) -> None:
        """Attach a fragment; must belong to this source."""
        if fragment.source_id != self.source_id:
            raise ValueError(
                f"fragment from {fragment.source_id!r} added to record set "
                f"of {self.source_id!r}")
        self.fragments.append(fragment)

    @property
    def record_count(self) -> int:
        """The longest fragment's length: the source's record count."""
        if not self.fragments:
            return 0
        return max(len(fragment) for fragment in self.fragments)

    @property
    def ragged(self) -> bool:
        """True when the attribute columns differ in length."""
        return len({len(fragment) for fragment in self.fragments}) > 1

    @property
    def attributes(self) -> list[AttributePath]:
        """Attribute paths of the collected fragments."""
        return [fragment.attribute for fragment in self.fragments]

    def align(self) -> list[dict[str, str | None]]:
        """Correlate columns into records: attribute ID → value maps.

        Ragged columns are padded with ``None``."""
        keys = [str(fragment.attribute) for fragment in self.fragments]
        return [dict(zip(keys, row)) for row in zip_longest(
            *[fragment.values for fragment in self.fragments])]
