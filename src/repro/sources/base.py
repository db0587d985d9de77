"""Common protocol for data sources.

A :class:`DataSource` is the unit the Data Source Repository registers
(paper section 2.3.2): it has an identifier, a *type* (which selects the
extractor), and *connection information* that "varies by data source type
— Web pages require URLs, files require paths, and databases require
location, login, password, and driver type".
"""

from __future__ import annotations

import abc
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from ..errors import S2SError


def stable_digest(*parts: str) -> str:
    """A sha256 hex digest over ``parts`` with unambiguous framing.

    Shared by the connectors' ``content_fingerprint`` implementations;
    length-prefixed so ``("ab", "c")`` and ``("a", "bc")`` differ."""
    digest = hashlib.sha256()
    for part in parts:
        encoded = part.encode("utf-8")
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()


class RuleCache:
    """Compile once per distinct rule text: an unbounded memo.

    Every connector parses its rules (SQL, XPath, WebL, regex) the first
    time it meets their text and keeps the result for the life of the
    source; the key may also be a *tuple* of rule texts, for what a
    connector compiles out of a whole rule set.  What is kept must be a
    pure function of the key — never of the source's content — and a
    ``compile`` that raises keeps nothing.  Pickles empty: compiled
    forms are cheap to rebuild and need not be picklable."""

    def __init__(self) -> None:
        self._compiled: dict[Hashable, Any] = {}

    def get(self, key: Hashable, compile: Callable[[Any], Any]) -> Any:
        """``compile(key)``, computed at most once per distinct key."""
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compiled[key] = compile(key)
        return compiled

    def __contains__(self, key: Hashable) -> bool:
        return key in self._compiled

    def __reduce__(self):
        return RuleCache, ()


class ExecutionDetails:
    """Per-thread, one-shot digests of a source's most recent call.

    ``execute_rule`` / ``execute_rules`` return values only; what a
    source wants to say *about* an execution (the SQL plan, which scan a
    batched rule shared) waits here, one digest per rule in rule order,
    for ``consume_execution_detail()`` to hand out one at a time.  Held
    per thread: clients sharing a source run their rules on different
    threads, and each must read back its own.  Pickles empty."""

    def __init__(self) -> None:
        self._pending: dict[int, list[dict | None]] = {}  # by thread id

    def record(self, digests: list[dict | None]) -> None:
        """Replace the calling thread's pending digests."""
        if any(digests):
            self._pending[threading.get_ident()] = list(digests)
        else:
            self._pending.pop(threading.get_ident(), None)

    def consume(self) -> dict | None:
        """The next pending digest of the calling thread, or None."""
        pending = self._pending.get(threading.get_ident())
        if not pending:
            return None
        digest = pending.pop(0)
        if not pending:
            del self._pending[threading.get_ident()]
        return digest

    def __reduce__(self):
        return ExecutionDetails, ()


@dataclass(frozen=True)
class ConnectionInfo:
    """Type-tagged connection parameters for one data source.

    ``parameters`` is a flat string map because that is what a registry
    persists; each connector documents the keys it requires.
    """

    source_type: str
    parameters: dict[str, str] = field(default_factory=dict)

    def require(self, key: str) -> str:
        """The parameter value; raises when absent."""
        value = self.parameters.get(key)
        if value is None:
            raise S2SError(
                f"connection info for {self.source_type!r} source is missing "
                f"required parameter {key!r}")
        return value

    def get(self, key: str, default: str | None = None) -> str | None:
        """The parameter value, or ``default``."""
        return self.parameters.get(key, default)


class DataSource(abc.ABC):
    """A connectable, queryable source of raw data.

    Concrete sources implement :meth:`execute_rule`, which runs one
    *extraction rule* (a SQL statement, XPath expression, WebL program or
    regex — whatever the source technology understands) and returns the
    matching raw values as a list of strings, one entry per data record.

    A source whose rules overlap (one document walked by every XPath
    rule, one filtered table behind every SELECT) may *also* define
    ``execute_rules(rules: list[str]) -> list[list[str]]``, returning
    exactly ``[execute_rule(r) for r in rules]`` while sharing work
    between the rules.  The capability is optional and detected
    structurally: there is deliberately no default here, so a
    wrapper that does not define it is run one rule at a time.  It may
    raise anything (the Extractor Manager then runs the source per
    rule) and must keep nothing that depends on the source's content
    once it returns.  See ``docs/api.md``.
    """

    #: Symbolic type used by the repository and the extractor dispatcher.
    source_type: str = "abstract"

    def __init__(self, source_id: str) -> None:
        if not source_id:
            raise S2SError("data source id must be non-empty")
        self.source_id = source_id
        self._connected = False

    # -- lifecycle -------------------------------------------------------

    def connect(self) -> None:
        """Open the source. Idempotent."""
        self._connected = True

    def close(self) -> None:
        """Close the source. Idempotent."""
        self._connected = False

    @property
    def connected(self) -> bool:
        """Whether :meth:`connect` has succeeded."""
        return self._connected

    def __enter__(self) -> "DataSource":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- extraction ------------------------------------------------------

    @abc.abstractmethod
    def execute_rule(self, rule: str) -> list[str]:
        """Run one extraction rule, returning one string per record."""

    @abc.abstractmethod
    def connection_info(self) -> ConnectionInfo:
        """The registry-persistable connection description of this source."""

    def content_fingerprint(self) -> str | None:
        """A stable hash of the source's observable content, or None.

        The semantic store's delta refresher compares fingerprints
        taken at materialization time against current ones to decide
        which sources need re-extraction.  ``None`` means "cannot
        observe" and is treated as *changed* — a connector that cannot
        fingerprint is simply always re-extracted, never wrongly
        skipped.  Implementations must not count as an access in any
        instrumentation the source keeps (a fingerprint probe is not a
        data fetch)."""
        return None

    def describe(self) -> str:
        """Human-readable one-line description."""
        return f"{self.source_type} source {self.source_id!r}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source_id!r})"

