"""Exception hierarchy for the S2S middleware and its substrates.

Every error raised by this library derives from :class:`S2SError`, so a
caller integrating S2S into a larger application can catch a single base
class.  Substrates (RDF store, SQL engine, XPath engine, WebL interpreter)
define their own subclasses here so that the `Instance Generator`'s error
channel (paper section 2.6) can classify failures by origin.
"""

from __future__ import annotations


class S2SError(Exception):
    """Base class for all errors raised by the S2S library."""


# ---------------------------------------------------------------------------
# Substrate errors
# ---------------------------------------------------------------------------

class RdfError(S2SError):
    """Errors from the RDF substrate (terms, graph, serializers)."""


class RdfSyntaxError(RdfError):
    """A Turtle or RDF/XML document could not be parsed."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class OntologyError(S2SError):
    """Errors from the ontology model (schema construction, lookup)."""


class ValidationError(OntologyError):
    """An individual or value violates the ontology schema."""


class SqlError(S2SError):
    """Errors from the in-memory relational engine."""


class SqlSyntaxError(SqlError):
    """A SQL statement could not be parsed."""


class SqlExecutionError(SqlError):
    """A parsed SQL statement failed during execution."""


class XmlError(S2SError):
    """Errors from the XML substrate."""


class XmlSyntaxError(XmlError):
    """An XML document could not be parsed."""


class XPathError(XmlError):
    """An XPath expression could not be parsed or evaluated."""


class WebError(S2SError):
    """Errors from the simulated web substrate."""


class PageNotFoundError(WebError):
    """No page is registered at the requested URL."""

    def __init__(self, url: str) -> None:
        super().__init__(f"no page registered at URL: {url}")
        self.url = url


class WeblError(S2SError):
    """Errors from the WebL-like extraction language."""


class WeblSyntaxError(WeblError):
    """A WebL program could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class WeblRuntimeError(WeblError):
    """A WebL program failed during interpretation."""


# ---------------------------------------------------------------------------
# Middleware errors
# ---------------------------------------------------------------------------

class MappingError(S2SError):
    """Errors in the Mapping Module (attribute/data-source repositories)."""


class UnknownAttributeError(MappingError):
    """An attribute ID is not registered in the attribute repository."""

    def __init__(self, attribute_id: str) -> None:
        super().__init__(f"attribute not registered: {attribute_id!r}")
        self.attribute_id = attribute_id


class UnknownDataSourceError(MappingError):
    """A data source ID is not registered in the data source repository."""

    def __init__(self, source_id: str) -> None:
        super().__init__(f"data source not registered: {source_id!r}")
        self.source_id = source_id


class ExtractionError(S2SError):
    """An extractor failed to retrieve data from a source."""

    def __init__(self, message: str, *, attribute_id: str | None = None,
                 source_id: str | None = None) -> None:
        parts = [message]
        if attribute_id is not None:
            parts.append(f"attribute={attribute_id}")
        if source_id is not None:
            parts.append(f"source={source_id}")
        super().__init__("; ".join(parts))
        self.attribute_id = attribute_id
        self.source_id = source_id


class TransientSourceError(S2SError):
    """A source failed in a way that is expected to heal on retry.

    The Extractor Manager's retry policy re-attempts only this class;
    permanent failures (bad rules, missing columns, authentication)
    fail fast."""


class PoisonPayloadError(S2SError):
    """A payload that deterministically breaks its processor.

    Non-retryable by construction: re-running the job would fail the
    same way every time, so the ingest pipeline quarantines the job to
    the dead-letter ledger instead of burning its retry budget."""

    def __init__(self, message: str, *, source_id: str | None = None) -> None:
        if source_id is not None:
            message = f"{message} (source={source_id})"
        super().__init__(message)
        self.source_id = source_id


class DeadlineExceededError(S2SError):
    """An extraction ran out of its wall-clock time budget.

    Raised inside the Extractor Manager when a :class:`~repro.core.\
resilience.deadline.Deadline` expires; it is collected as an extraction
    problem (the source is reported as timed out) rather than aborting
    the whole query."""


class CircuitOpenError(S2SError):
    """A source's circuit breaker is open; the call was not attempted.

    Open breakers fail fast so a down source cannot burn the retry
    budget or the deadline of an entire federated query.  The Extractor
    Manager reacts by falling through to a replica when one is mapped."""

    def __init__(self, source_id: str, *, retry_after: float | None = None
                 ) -> None:
        message = f"circuit breaker open for source {source_id!r}"
        if retry_after is not None:
            message += f" (retry in {retry_after:.3f}s)"
        super().__init__(message)
        self.source_id = source_id
        self.retry_after = retry_after


class FleetQuotaExceeded(S2SError):
    """A sharded query fleet refused admission at one of its quotas.

    Raised by ``QueryShardCoordinator`` when a new query would exceed
    the fleet-wide ``max_inflight_requests`` cap (``scope="fleet"``) or
    the submitting tenant's ``tenant_quota`` of in-flight shard items
    (``scope="tenant"``).  The query server maps it onto the same
    RETRY_AFTER pushback frame its own admission control uses, so
    clients see one uniform "come back later" signal."""

    def __init__(self, message: str, *, tenant: str = "default",
                 scope: str = "fleet",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.scope = scope
        self.retry_after = retry_after


class QueryError(S2SError):
    """Errors from the S2SQL query handler."""


class S2sqlSyntaxError(QueryError):
    """An S2SQL query could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class InstanceGenerationError(S2SError):
    """The instance generator could not assemble ontology instances."""


class CodecError(S2SError):
    """An entity or error entry has no JSON form, or JSON data is not one."""
