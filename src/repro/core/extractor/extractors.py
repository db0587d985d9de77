"""Per-source-type extractors (wrappers) and their registry.

"The extraction manager delegates a specific extractor for each extraction
method depending on the data source type.  For Web pages, the extraction
rules are delegated to a Web wrapper, for databases to a database
extractor, and so on." (paper section 2.4.3 step 4)

The :class:`Extractor` layer is deliberately thin — connectors already
speak their own rule language — because it is the *extensibility point*
the paper advertises ("the extractor and mapping architecture were
designed in order to be easily extended to support other extraction
methods and languages"): supporting a new source technology means one
DataSource subclass plus one Extractor subclass registered here, nothing
in the middleware core changes (claim C4 in DESIGN.md).
"""

from __future__ import annotations

import abc
import contextlib

from ...errors import ExtractionError, S2SError, TransientSourceError
from ...sources.base import DataSource
from ..mapping.attributes import MappingEntry
from ..mapping.rules import TransformRegistry
from .records import RawFragment


def _execution_detail(source: DataSource) -> dict | None:
    """The source's next one-shot digest of the rule(s) it just ran
    (e.g. the relational source's SQL plan), one per rule in rule order,
    read on the thread that ran them."""
    hook = getattr(source, "consume_execution_detail", None)
    return hook() if hook is not None else None


def runs_batches(source: DataSource) -> bool:
    """Whether ``source`` advertises the optional ``execute_rules``
    capability.

    Structural: a wrapper that does not define it is run one rule at a
    time.  So is a subclass (or an instance) that overrides
    ``execute_rule`` beneath the class that defines ``execute_rules`` —
    whatever the override adds would otherwise be bypassed by the
    inherited batch."""
    def definer(name: str) -> int | None:
        if name in vars(source):
            return -1
        return next((depth for depth, cls in enumerate(type(source).__mro__)
                     if name in vars(cls)), None)
    batch, single = definer("execute_rules"), definer("execute_rule")
    return batch is not None and (single is None or batch <= single)


@contextlib.contextmanager
def _classified(source: DataSource, attribute_id: str | None):
    """Error classification around a rule execution (``attribute_id``
    is None for a batch: only a single rule's error can name one)."""
    try:
        yield
    except (ExtractionError, TransientSourceError):
        # Transient errors keep their type so the manager's retry
        # policy can distinguish them from permanent failures.
        raise
    except S2SError as exc:
        raise ExtractionError(
            str(exc), attribute_id=attribute_id,
            source_id=source.source_id) from exc


class Extractor(abc.ABC):
    """Executes extraction rules of one language against one source type."""

    #: The DataSource.source_type this extractor serves.
    source_type: str = "abstract"

    def __init__(self, transforms: TransformRegistry | None = None) -> None:
        self.transforms = transforms or TransformRegistry()

    def extract(self, source: DataSource, entry: MappingEntry) -> RawFragment:
        """Run one mapping entry against its source."""
        self._check_type(source, entry.attribute_id)
        with _classified(source, entry.attribute_id):
            values = source.execute_rule(entry.rule.code)
        return self._fragment(source, entry, values)

    def extract_many(self, source: DataSource,
                     entries: list[MappingEntry]) -> list[RawFragment]:
        """Run all of one source's ``entries``; the fragments a loop
        over :meth:`extract` returns, in order.

        A source advertising ``execute_rules`` (see :func:`runs_batches`)
        gets the whole rule set in one call and may share work between
        the rules; every other source is run per rule.  A batch may
        raise anything, and its error names no attribute — callers that
        need to know *which* rule failed re-run per rule (the Extractor
        Manager does)."""
        if not runs_batches(source):
            return [self.extract(source, entry) for entry in entries]
        self._check_type(source, None)
        with _classified(source, None):
            columns = source.execute_rules(
                [entry.rule.code for entry in entries])
        return self._fragments(source, entries, columns)

    def _check_type(self, source: DataSource,
                    attribute_id: str | None) -> None:
        if source.source_type != self.source_type:
            raise ExtractionError(
                f"{type(self).__name__} cannot extract from "
                f"{source.source_type!r} source",
                attribute_id=attribute_id, source_id=source.source_id)

    def _fragment(self, source: DataSource, entry: MappingEntry,
                  values: list[str]) -> RawFragment:
        values = self.transforms.apply(entry.rule.transform, values)
        return RawFragment(entry.attribute, source.source_id, values,
                           _execution_detail(source))

    def _fragments(self, source: DataSource, entries: list[MappingEntry],
                   columns: list[list[str]]) -> list[RawFragment]:
        if len(columns) != len(entries):
            raise ExtractionError(
                f"execute_rules returned {len(columns)} columns for "
                f"{len(entries)} rules", source_id=source.source_id)
        # Each fragment takes its own digest off the source, in rule order.
        return [self._fragment(source, entry, values)
                for entry, values in zip(entries, columns)]


class WebExtractor(Extractor):
    """Runs WebL rules against web-page sources (the paper's Web wrapper)."""

    source_type = "webpage"


class DatabaseExtractor(Extractor):
    """Runs SQL rules against database sources."""

    source_type = "database"


class XmlExtractor(Extractor):
    """Runs XPath rules against XML sources."""

    source_type = "xml"


class TextExtractor(Extractor):
    """Runs regex rules against plain-text sources."""

    source_type = "textfile"


class ExtractorRegistry:
    """source type → extractor dispatch table."""

    def __init__(self, transforms: TransformRegistry | None = None,
                 *, include_defaults: bool = True) -> None:
        self.transforms = transforms or TransformRegistry()
        self._extractors: dict[str, Extractor] = {}
        if include_defaults:
            for extractor_cls in (WebExtractor, DatabaseExtractor,
                                  XmlExtractor, TextExtractor):
                self.register(extractor_cls(self.transforms))

    def register(self, extractor: Extractor, *, replace: bool = False) -> None:
        """Install an extractor for its source type."""
        if extractor.source_type in self._extractors and not replace:
            raise ExtractionError(
                f"extractor for {extractor.source_type!r} already registered")
        self._extractors[extractor.source_type] = extractor

    def for_source(self, source: DataSource) -> Extractor:
        """The extractor serving a source's type; raises if none."""
        extractor = self._extractors.get(source.source_type)
        if extractor is None:
            raise ExtractionError(
                f"no extractor registered for source type "
                f"{source.source_type!r}", source_id=source.source_id)
        return extractor
