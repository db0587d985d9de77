"""The client of the S2S query server: :class:`S2SClient`, blocking,
over a plain socket (no hidden event loop).  Each operation builds its
frame and makes its exchanges through :meth:`S2SClient._request`.

It mirrors the middleware's querying surface —
``query`` / ``query_many`` / ``sparql`` / ``explain`` — plus
``prepare()`` returning a :class:`PreparedStatement` (the PARSE/BIND/
EXECUTE flow: the server keeps the parsed AST, so repeated executions
skip the parser and planner round trip).  Answers come back as
:class:`~repro.server.codec.RemoteQueryResult`, whose reading surface
matches the in-process ``QueryResult``; code that consumes answers does
not care which side of the socket produced them.

Backpressure is surfaced, not hidden: a RETRY_AFTER frame raises
:class:`~repro.server.protocol.ServerBusyError` carrying the server's
retry hint, and an ERROR frame raises
:class:`~repro.server.protocol.RemoteServerError` with the server's
error code.  Retrying is the caller's policy decision.  A reply field
the client reads that is missing or of the wrong JSON type raises
:class:`~repro.errors.CodecError`.
"""

from __future__ import annotations

import itertools
import math
import socket
import time
from dataclasses import dataclass, field

from ..core.instances.codec import json_field
from ..errors import CodecError, S2SError
from . import protocol
from .codec import RemoteQueryResult, result_from_wire, results_from_wire
from .protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError,
                       RemoteServerError, ServerBusyError, TornFrameError,
                       TransportError, check_port, read_frame,
                       write_frame)


@dataclass
class RemoteSparqlResult:
    """SPARQL SELECT rows as decoded from the wire.

    ``rows`` holds one term dict (``type``/``text``/``datatype?``) per
    variable; :meth:`simple_rows` flattens to the text values."""

    variables: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def simple_rows(self) -> list[tuple]:
        """Rows as tuples of the terms' text values."""
        return [tuple(term.get("text") for term in row) for row in self.rows]


@dataclass
class PreparedStatement:
    """A named server-side statement plus its bound portal.

    Created by ``client.prepare()``; ``execute()`` runs the bound
    portal, re-binding first only when ``merge_key`` changes.  The
    parsed AST lives on the server — executions skip parse + plan."""

    client: S2SClient
    name: str
    query_class: str
    attributes: int
    _merge_key: list[str] | None = None

    def execute(self, *, merge_key: list[str] | None = None,
                timeout: float | None = None) -> RemoteQueryResult:
        """Run the statement."""
        client = self.client
        if merge_key != self._merge_key:
            client._request(_query_frame(protocol.BIND, name=self.name,
                                         merge_key=merge_key),
                            protocol.BOUND)
            self._merge_key = merge_key
        started = time.perf_counter()
        reply = client._request(_query_frame(
            protocol.EXECUTE, portal=self.name, timeout=timeout),
            protocol.RESULT)
        return _decode_result(reply, started)


def _query_frame(kind: str, *, merge_key=None, timeout=None,
                 **fields) -> dict:
    frame = {"kind": kind, **fields}
    if merge_key is not None:
        frame["merge_key"] = list(merge_key)
    if timeout is not None:
        frame["timeout"] = float(timeout)
    return frame


def _decode_result(reply: dict, started: float) -> RemoteQueryResult:
    result = result_from_wire(reply.get("result"))
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _interpret(reply: dict | None, frame: dict, expected: str) -> dict:
    """Raise on EOF, a reply to some other request, ERROR or
    RETRY_AFTER; return the reply frame."""
    if reply is None:
        raise TornFrameError("server closed the connection mid-request")
    kind = reply.get("kind")
    reply_id = reply.get("id")
    # Connection-level ERROR frames carry no id; everything else must
    # echo the request's (HELLO and WELCOME have none), or it answers
    # an earlier, abandoned request.
    if reply_id != frame.get("id") and not (kind == protocol.ERROR
                                            and reply_id is None):
        raise ProtocolError(
            f"reply {kind!r} carries id {reply_id!r}, not the "
            f"request's {frame.get('id')!r}")
    if kind == protocol.RETRY_AFTER:
        depth = reply.get("queue_depth")
        if depth is not None and type(depth) is not int:
            raise CodecError("field 'queue_depth' is not an int")
        delay = json_field(reply, "retry_after", float, int)
        if not 0 <= delay < math.inf:  # NaN compares false
            raise CodecError(f"field 'retry_after' is {delay!r}, not a "
                             f"finite delay of at least 0")
        raise ServerBusyError(delay, queue_depth=depth)
    if kind == protocol.ERROR:
        code = reply.get("code", protocol.CODE_INTERNAL)
        message = reply.get("error", "unknown error")
        if type(code) is not str or type(message) is not str:
            raise CodecError("fields 'code' and 'error' of an ERROR frame "
                             "must be strings")
        raise RemoteServerError(code, message)
    if kind != expected:
        raise S2SError(f"expected {expected}, got {kind!r}")
    return reply


def _fields(reply: dict) -> dict:
    return {key: value for key, value in reply.items()
            if key not in ("kind", "id")}


class S2SClient:
    """The blocking client over a plain socket.

    ``timeout`` is the socket timeout for connect and reads (``None``
    blocks forever).  One outstanding request per client (the server
    answers a connection's frames in order); open several clients, one
    per thread, for concurrency."""

    def __init__(self, host: str, port: int, *, tenant: str = "default",
                 token: str | None = None, timeout: float | None = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = check_port(port)
        self.tenant = tenant
        self.token = token
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.server_info: dict = {}
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None

    def connect(self) -> S2SClient:
        """Open the connection and complete the HELLO handshake.

        All or nothing: a connection the server refuses (bad token,
        unsupported protocol revision) or that fails mid-handshake is
        closed again, and the next call starts afresh.  One the server
        closes before WELCOME raises :class:`TransportError` naming the
        address, like one that cannot be opened."""
        if self._sock is not None:
            return self
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            raise TransportError(exc, address=(self.host, self.port)) \
                from exc
        hello = {"kind": protocol.HELLO, "protocol": PROTOCOL_VERSION,
                 "tenant": self.tenant}
        if self.token is not None:
            hello["token"] = self.token
        try:
            self.server_info = self._exchange(hello, protocol.WELCOME)
        except BaseException as exc:
            self._drop()
            closed = exc.__cause__ if isinstance(exc, TransportError) else exc
            if isinstance(closed, (TornFrameError, ConnectionError)):
                # closed before WELCOME, whether or not the server read
                # the HELLO: the connection was never opened
                raise TransportError(closed, address=(self.host, self.port)
                                     ) from exc
            raise
        return self

    def _drop(self) -> None:
        """Abandon the connection without ceremony."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def close(self) -> None:
        """Say GOODBYE (best effort) and close the socket."""
        if self._sock is not None:
            try:
                write_frame(self._sock, {"kind": protocol.GOODBYE},
                            max_bytes=self.max_frame_bytes)
            except OSError:
                pass
            self._drop()

    def __enter__(self) -> S2SClient:
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, frame: dict, expected: str) -> dict:
        """One round trip.  A reply that fails the id check, a transport
        error or a socket timeout closes the connection: the reply still
        owed on it must never be read as the answer to the next
        request."""
        try:
            write_frame(self._sock, frame, max_bytes=self.max_frame_bytes)
            return _interpret(
                read_frame(self._sock, max_bytes=self.max_frame_bytes),
                frame, expected)
        except ProtocolError:
            self._drop()
            raise
        except OSError as exc:  # includes the socket timeout
            self._drop()
            raise TransportError(exc) from exc

    def _request(self, frame: dict, expected: str) -> dict:
        """One exchange: connect if needed, stamp the next request id,
        send ``frame`` and return the checked ``expected`` reply."""
        self.connect()
        frame["id"] = next(self._ids)
        return self._exchange(frame, expected)

    # -- the operations ----------------------------------------------------

    def query(self, s2sql: str, *, merge_key: list[str] | None = None,
              timeout: float | None = None) -> RemoteQueryResult:
        """One S2SQL query over the wire; mirrors ``middleware.query``."""
        started = time.perf_counter()
        reply = self._request(_query_frame(
            protocol.QUERY, s2sql=s2sql, merge_key=merge_key,
            timeout=timeout), protocol.RESULT)
        return _decode_result(reply, started)

    def query_many(self, queries: list[str], *,
                   merge_key: list[str] | None = None,
                   timeout: float | None = None) -> list[RemoteQueryResult]:
        """A batch sharing one scan per source, like ``query_many``."""
        started = time.perf_counter()
        reply = self._request(_query_frame(
            protocol.QUERY_MANY, queries=list(queries), merge_key=merge_key,
            timeout=timeout), protocol.RESULTS)
        results = results_from_wire(reply)
        elapsed = time.perf_counter() - started
        for result in results:
            result.elapsed_seconds = elapsed
        return results

    def prepare(self, name: str, s2sql: str) -> PreparedStatement:
        """PARSE + BIND a named statement; returns its handle."""
        reply = self._request({"kind": protocol.PARSE, "name": name,
                               "s2sql": s2sql}, protocol.PARSED)
        statement = PreparedStatement(
            self, name, json_field(reply, "query_class", str),
            json_field(reply, "attributes", int))
        self._request({"kind": protocol.BIND, "name": name}, protocol.BOUND)
        return statement

    def sparql(self, text: str) -> bool | RemoteSparqlResult:
        """SPARQL over the tenant's store: bool for ASK, rows for
        SELECT."""
        reply = self._request({"kind": protocol.SPARQL, "sparql": text},
                              protocol.SPARQL_RESULT)
        if "ask" in reply:
            return json_field(reply, "ask", bool)
        variables = json_field(reply, "variables", list)
        rows = json_field(reply, "rows", list)
        if not (all(type(name) is str for name in variables)
                and all(type(row) is list and all(type(term) is dict
                                                  for term in row)
                        for row in rows)):
            raise CodecError("SPARQL variables are not strings, or rows "
                             "not lists of term objects")
        return RemoteSparqlResult(variables, rows)

    def explain(self, s2sql: str, *,
                merge_key: list[str] | None = None) -> str:
        """The server-rendered span tree for one traced execution."""
        reply = self._request(_query_frame(
            protocol.EXPLAIN, s2sql=s2sql, merge_key=merge_key),
            protocol.EXPLAINED)
        return json_field(reply, "rendered", str)

    def status(self) -> dict:
        """Server + tenant status snapshot."""
        return _fields(self._request({"kind": protocol.STATUS},
                                     protocol.STATUS_OK))

    def metrics(self) -> dict:
        """Server + tenant metrics export: ``metrics`` (an object) and
        ``text`` (the rendered exposition), else :class:`CodecError`."""
        reply = self._request({"kind": protocol.METRICS},
                              protocol.METRICS_OK)
        json_field(reply, "metrics", dict)
        json_field(reply, "text", str)
        return _fields(reply)
