"""Web connector implementing the DataSource protocol.

A web source is one page (or site) on the simulated web; its extraction
rules are WebL programs (paper section 2.3.1: "the data source was a Web
page so the extraction rules were defined in a Web extraction language
(WebL)").  The connector binds ``GetURL`` to the simulated web and exposes
the source's own URL to rules as the ``SourceURL()`` builtin, so one WebL
file can serve many registered pages (the paper's ``watch.webl`` +
``wpage_81`` pairing).
"""

from __future__ import annotations

from ...errors import ExtractionError, WeblError
from ...webl.builtins import stringify
from ...webl.interpreter import WeblInterpreter, compile_webl
from ..base import ConnectionInfo, DataSource, RuleCache, stable_digest
from .site import SimulatedWeb


class WebDataSource(DataSource):
    """A registered web page behind WebL extraction rules."""

    source_type = "webpage"

    def __init__(self, source_id: str, web: SimulatedWeb, url: str) -> None:
        super().__init__(source_id)
        self.web = web
        self.url = url
        self._interpreter = WeblInterpreter(
            web.fetch, extra_builtins={"SourceURL": lambda: self.url})
        self._compiled = RuleCache()  # closures: a function of the text

    def __reduce__(self):
        """Rebuild from constructor args when pickled (subprocess
        workers): the interpreter's builtin closures and the compiled
        program cache don't pickle and are cheap to re-create."""
        return (self.__class__, (self.source_id, self.web, self.url))

    def connect(self) -> None:
        """Verify the page is reachable before extraction."""
        if not self.web.has(self.url):
            raise ExtractionError(
                f"page not reachable at {self.url}", source_id=self.source_id)
        super().connect()

    def execute_rule(self, rule: str) -> list[str]:
        """Run a WebL rule against the live (sleeping) simulated web; a
        list result is n records, a scalar is 1."""
        if not self.connected:
            self.connect()
        try:
            result = self._interpreter.run(
                self._compiled.get(rule, compile_webl))
        except WeblError as exc:
            raise ExtractionError(
                f"WebL rule failed: {exc}", source_id=self.source_id) from exc
        return self._records(result)

    def _records(self, result) -> list[str]:
        """One record per list item, rendered as ``ToString`` would; a
        string, what a rule usually collects, is already its record."""
        if result is None:
            return []
        if not isinstance(result, list):
            return [stringify(result)]
        kinds = set(map(type, result))
        if list in kinds:
            raise ExtractionError(
                "WebL rule returned a list of lists; index a group of each "
                "match (g[1], not g)", source_id=self.source_id)
        if kinds <= {str}:
            return result
        return [stringify(item) for item in result]

    def content_fingerprint(self) -> str | None:
        """Hash of the page body, read without counting a fetch."""
        html = self.web.peek(self.url)
        if html is None:
            return None
        return stable_digest(self.url, html)

    def connection_info(self) -> ConnectionInfo:
        """The page URL (all a web source needs, per the paper)."""
        return ConnectionInfo(self.source_type, {"url": self.url})
