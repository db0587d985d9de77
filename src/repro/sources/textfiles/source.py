"""Text-file connector implementing the DataSource protocol.

Extraction rules are regular expressions, optionally prefixed with the
file they apply to (``file:inventory.txt <regex>``); each match yields one
record — group 1 when the pattern has groups, the whole match otherwise.
"""

from __future__ import annotations

import re

from ...errors import ExtractionError
from ..base import ConnectionInfo, DataSource, RuleCache, stable_digest
from .store import TextFileStore

_FILE_PREFIX = "file:"


class TextDataSource(DataSource):
    """A registered text-file store behind regex extraction rules."""

    source_type = "textfile"

    def __init__(self, source_id: str, store: TextFileStore, *,
                 default_file: str | None = None,
                 path: str = "memory://textfiles") -> None:
        super().__init__(source_id)
        self.store = store
        self.default_file = default_file
        self.path = path
        self._compiled = RuleCache()

    def _compile(self, pattern: str) -> re.Pattern:
        try:
            return re.compile(pattern, re.MULTILINE)
        except re.error as exc:
            raise ExtractionError(
                f"invalid regex extraction rule {pattern!r}: {exc}",
                source_id=self.source_id) from exc

    def execute_rule(self, rule: str) -> list[str]:
        """Run a regex rule; group 1 (or whole match) per record."""
        if not self.connected:
            self.connect()
        rule = rule.strip()
        file_path = self.default_file
        if rule.startswith(_FILE_PREFIX):
            head, _, rest = rule.partition(" ")
            file_path = head[len(_FILE_PREFIX):]
            rule = rest.strip()
            if not rule:
                raise ExtractionError("regex missing after file prefix",
                                      source_id=self.source_id)
        if file_path is None:
            paths = self.store.paths()
            if len(paths) != 1:
                raise ExtractionError(
                    f"regex rule must name a file (store has {len(paths)}): "
                    "prefix with 'file:<path> '", source_id=self.source_id)
            file_path = paths[0]
        content = self.store.read(file_path)
        compiled = self._compiled.get(rule, self._compile)
        records: list[str] = []
        for match in compiled.finditer(content):
            if compiled.groups >= 1:
                records.append((match.group(1) or "").strip())
            else:
                records.append(match.group(0).strip())
        return records

    def content_fingerprint(self) -> str | None:
        """Hash of every stored file's contents."""
        parts: list[str] = []
        for path in self.store.paths():
            parts.append(path)
            parts.append(self.store.read(path))
        return stable_digest(*parts)

    def connection_info(self) -> ConnectionInfo:
        """Registry-persistable connection description."""
        parameters = {"path": self.path, "store": self.store.name}
        if self.default_file is not None:
            parameters["file"] = self.default_file
        return ConnectionInfo(self.source_type, parameters)
