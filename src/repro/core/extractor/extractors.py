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
import asyncio
import contextlib

from ...errors import ExtractionError, S2SError, TransientSourceError
from ...sources.base import DataSource
from ..mapping.attributes import MappingEntry
from ..mapping.rules import TransformRegistry
from .records import RawFragment


def _execution_detail(source: DataSource) -> dict | None:
    """The source's one-shot digest of the rule it just ran (e.g. the
    relational source's SQL plan).  Read here, on the thread that ran
    the rule: under the asyncio engine the manager resumes on another."""
    hook = getattr(source, "consume_execution_detail", None)
    return hook() if hook is not None else None


@contextlib.contextmanager
def _classified(source: DataSource, entry: MappingEntry):
    """Error classification around one rule execution."""
    try:
        yield
    except (ExtractionError, TransientSourceError):
        # Transient errors keep their type so the manager's retry
        # policy can distinguish them from permanent failures.
        raise
    except S2SError as exc:
        raise ExtractionError(
            str(exc), attribute_id=entry.attribute_id,
            source_id=source.source_id) from exc


class Extractor(abc.ABC):
    """Executes extraction rules of one language against one source type."""

    #: The DataSource.source_type this extractor serves.
    source_type: str = "abstract"

    def __init__(self, transforms: TransformRegistry | None = None) -> None:
        self.transforms = transforms or TransformRegistry()

    def extract(self, source: DataSource, entry: MappingEntry) -> RawFragment:
        """Run one mapping entry against its source."""
        self._check_type(source, entry)
        with _classified(source, entry):
            values = source.execute_rule(entry.rule.code)
        return self._fragment(source, entry, values)

    async def aextract(self, source: DataSource,
                       entry: MappingEntry) -> RawFragment:
        """:meth:`extract` for the asyncio engine.

        Sources exposing an ``aexecute_rule`` coroutine (the
        :class:`~repro.sources.base.AsyncDataSource` protocol) are
        awaited natively, keeping the event loop free while they wait on
        their transport — the awaited call is the only line that differs
        from :meth:`extract`.  Legacy sync connectors run the *whole*
        synchronous :meth:`extract` in a worker thread, so the execution
        detail is read back on the thread that ran the rule."""
        run_rule = getattr(source, "aexecute_rule", None)
        if run_rule is None:
            return await asyncio.to_thread(self.extract, source, entry)
        self._check_type(source, entry)
        with _classified(source, entry):
            values = await run_rule(entry.rule.code)
        return self._fragment(source, entry, values)

    def _check_type(self, source: DataSource, entry: MappingEntry) -> None:
        if source.source_type != self.source_type:
            raise ExtractionError(
                f"{type(self).__name__} cannot extract from "
                f"{source.source_type!r} source",
                attribute_id=entry.attribute_id, source_id=source.source_id)

    def _fragment(self, source: DataSource, entry: MappingEntry,
                  values: list[str]) -> RawFragment:
        values = self.transforms.apply(entry.rule.transform, values)
        return RawFragment(entry.attribute, source.source_id, values,
                           _execution_detail(source))


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

    def supported_types(self) -> list[str]:
        """Source types with a registered extractor, sorted."""
        return sorted(self._extractors)
