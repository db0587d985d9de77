"""Clients for the S2S query server.

Two clients share the frame codec and one request/response brain:
every operation is written once on :class:`_RequestBrain`, as a
generator that yields each ``(frame, expected reply kind)`` exchange,
and the client classes supply only the transport that performs it.

* :class:`AsyncS2SClient` — asyncio streams, for callers already on an
  event loop (and for the server's own tests).
* :class:`S2SClient` — a plain blocking socket, for scripts, the CLI
  and benchmark worker threads.  No hidden event loop.

Both mirror the middleware's querying surface —
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
error code.  Retrying is the caller's policy decision.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import socket
import time
from dataclasses import dataclass, field

from ..errors import S2SError
from . import protocol
from .codec import RemoteQueryResult, result_from_wire, results_from_wire
from .protocol import (MAX_FRAME_BYTES, ProtocolError, RemoteServerError,
                       ServerBusyError, TornFrameError, TransportError,
                       read_frame, read_frame_sync, write_frame,
                       write_frame_sync)


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


def _operation(steps):
    """Expose a request generator as a client method.

    ``steps`` is written once on :class:`_RequestBrain` as
    ``reply = yield frame, expected``; the method hands the started
    generator to the client's ``_drive``, so the blocking client returns
    the operation's result and the asyncio client a coroutine producing
    it."""

    @functools.wraps(steps)
    def method(self, *args, **kwargs):
        return self._drive(steps(self, *args, **kwargs))

    return method


class _RequestBrain:
    """Every client operation, frame construction and response
    interpretation, shared by both clients.

    Subclasses supply only the transport: ``connect``, a close method
    and ``_drive``, which performs each ``(frame, expected)`` exchange
    an operation yields and resumes it with the checked reply."""

    def __init__(self, host: str, port: int, tenant: str,
                 token: str | None, max_frame_bytes: int) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.token = token
        self.max_frame_bytes = max_frame_bytes
        self.server_info: dict = {}
        self._ids = itertools.count(1)

    def _hello_frame(self) -> dict:
        frame = {"kind": protocol.HELLO,
                 "protocol": protocol.PROTOCOL_VERSION,
                 "tenant": self.tenant}
        if self.token is not None:
            frame["token"] = self.token
        return frame

    @staticmethod
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
            raise ServerBusyError(float(reply.get("retry_after", 0.0)),
                                  queue_depth=reply.get("queue_depth"))
        if kind == protocol.ERROR:
            raise RemoteServerError(reply.get("code", protocol.CODE_INTERNAL),
                                    reply.get("error", "unknown error"))
        if kind != expected:
            raise S2SError(f"expected {expected}, got {kind!r}")
        return reply

    @staticmethod
    def _query_frame(kind: str, *, merge_key=None, timeout=None,
                     **fields) -> dict:
        frame = {"kind": kind, **fields}
        if merge_key is not None:
            frame["merge_key"] = list(merge_key)
        if timeout is not None:
            frame["timeout"] = float(timeout)
        return frame

    @staticmethod
    def _decode_result(reply: dict, started: float) -> RemoteQueryResult:
        result = result_from_wire(reply.get("result"))
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # -- the operations ----------------------------------------------------

    @_operation
    def _request(self, frame: dict, expected: str) -> dict:
        """One raw exchange: send ``frame``, return the checked reply."""
        return (yield frame, expected)

    @_operation
    def query(self, s2sql: str, *, merge_key: list[str] | None = None,
              timeout: float | None = None) -> RemoteQueryResult:
        """One S2SQL query over the wire; mirrors ``middleware.query``."""
        started = time.perf_counter()
        reply = yield self._query_frame(
            protocol.QUERY, s2sql=s2sql, merge_key=merge_key,
            timeout=timeout), protocol.RESULT
        return self._decode_result(reply, started)

    @_operation
    def query_many(self, queries: list[str], *,
                   merge_key: list[str] | None = None,
                   timeout: float | None = None) -> list[RemoteQueryResult]:
        """A batch sharing one scan per source, like ``query_many``."""
        started = time.perf_counter()
        reply = yield self._query_frame(
            protocol.QUERY_MANY, queries=list(queries), merge_key=merge_key,
            timeout=timeout), protocol.RESULTS
        results = results_from_wire(reply)
        elapsed = time.perf_counter() - started
        for result in results:
            result.elapsed_seconds = elapsed
        return results

    @_operation
    def prepare(self, name: str, s2sql: str) -> "PreparedStatement":
        """PARSE + BIND a named statement; returns its handle."""
        reply = yield {"kind": protocol.PARSE, "name": name,
                       "s2sql": s2sql}, protocol.PARSED
        yield {"kind": protocol.BIND, "name": name}, protocol.BOUND
        return PreparedStatement(self, name, reply.get("query_class", ""),
                                 int(reply.get("attributes", 0)))

    @_operation
    def _execute_prepared(self, statement: "PreparedStatement", *,
                          merge_key: list[str] | None,
                          timeout: float | None) -> RemoteQueryResult:
        if merge_key != statement._merge_key:
            yield self._query_frame(protocol.BIND, name=statement.name,
                                    merge_key=merge_key), protocol.BOUND
            statement._merge_key = merge_key
        started = time.perf_counter()
        reply = yield self._query_frame(
            protocol.EXECUTE, portal=statement.name,
            timeout=timeout), protocol.RESULT
        return self._decode_result(reply, started)

    @_operation
    def sparql(self, text: str):
        """SPARQL over the tenant's store: bool for ASK, rows for
        SELECT."""
        reply = yield {"kind": protocol.SPARQL,
                       "sparql": text}, protocol.SPARQL_RESULT
        if "ask" in reply:
            return bool(reply["ask"])
        return RemoteSparqlResult(list(reply.get("variables", [])),
                                  [list(row) for row in
                                   reply.get("rows", [])])

    @_operation
    def explain(self, s2sql: str, *,
                merge_key: list[str] | None = None) -> str:
        """The server-rendered span tree for one traced execution."""
        reply = yield self._query_frame(
            protocol.EXPLAIN, s2sql=s2sql,
            merge_key=merge_key), protocol.EXPLAINED
        return reply.get("rendered", "")

    @_operation
    def status(self) -> dict:
        """Server + tenant status snapshot."""
        reply = yield {"kind": protocol.STATUS}, protocol.STATUS_OK
        return {key: value for key, value in reply.items()
                if key not in ("kind", "id")}

    @_operation
    def metrics(self) -> dict:
        """Server + tenant metrics export."""
        reply = yield {"kind": protocol.METRICS}, protocol.METRICS_OK
        return {key: value for key, value in reply.items()
                if key not in ("kind", "id")}


@dataclass
class PreparedStatement:
    """A named server-side statement plus its bound portal.

    Created by ``client.prepare()``; ``execute()`` runs the bound
    portal, re-binding first only when ``merge_key`` changes.  The
    parsed AST lives on the server — executions skip parse + plan."""

    client: object
    name: str
    query_class: str
    attributes: int
    _merge_key: list[str] | None = None

    def execute(self, *, merge_key: list[str] | None = None,
                timeout: float | None = None):
        """Run the statement (sync and async clients each return their
        native flavour: a result, or a coroutine producing one)."""
        return self.client._execute_prepared(self, merge_key=merge_key,
                                             timeout=timeout)


class AsyncS2SClient(_RequestBrain):
    """The asyncio client; connect with ``async with`` or ``connect()``.

    Every operation of :class:`_RequestBrain` returns a coroutine here
    (``await client.query(...)``).  One outstanding request per client
    (the server answers a connection's frames in order); open several
    clients for concurrency."""

    def __init__(self, host: str, port: int, *, tenant: str = "default",
                 token: str | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        super().__init__(host, port, tenant, token, max_frame_bytes)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncS2SClient":
        """Open the connection and complete the HELLO handshake."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
            self.server_info = await self._exchange(self._hello_frame(),
                                                    protocol.WELCOME)
        return self

    def _drop(self) -> None:
        """Abandon the connection without ceremony."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()

    async def aclose(self) -> None:
        """Say GOODBYE (best effort) and close the transport."""
        writer = self._writer
        if writer is None:
            return
        try:
            await write_frame(writer, {"kind": protocol.GOODBYE},
                              max_bytes=self.max_frame_bytes)
        except OSError:
            pass
        self._drop()
        try:
            await writer.wait_closed()
        except OSError:
            pass

    async def __aenter__(self) -> "AsyncS2SClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def _exchange(self, frame: dict, expected: str) -> dict:
        """One round trip.  A reply that fails the id check, a transport
        error, or a cancellation mid-exchange (``asyncio.wait_for``
        timing out) closes the connection: the reply still owed on it
        must never be read as the answer to the next request."""
        try:
            await write_frame(self._writer, frame,
                              max_bytes=self.max_frame_bytes)
            return self._interpret(
                await read_frame(self._reader,
                                 max_bytes=self.max_frame_bytes),
                frame, expected)
        except (ProtocolError, asyncio.CancelledError):
            self._drop()
            raise
        except OSError as exc:
            self._drop()
            raise TransportError(exc) from exc

    async def _drive(self, operation):
        """Run one operation, awaiting each exchange it yields."""
        await self.connect()
        try:
            frame, expected = next(operation)
            while True:
                frame["id"] = next(self._ids)
                frame, expected = operation.send(
                    await self._exchange(frame, expected))
        except StopIteration as stop:
            return stop.value


class S2SClient(_RequestBrain):
    """The blocking client over a plain socket.

    Every operation of :class:`_RequestBrain` returns its result
    directly here; use from scripts, REPLs and benchmark worker threads.
    ``timeout`` is the socket timeout for connect and reads (``None``
    blocks forever)."""

    def __init__(self, host: str, port: int, *, tenant: str = "default",
                 token: str | None = None, timeout: float | None = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        super().__init__(host, port, tenant, token, max_frame_bytes)
        self.timeout = timeout
        self._sock: socket.socket | None = None

    def connect(self) -> "S2SClient":
        """Open the connection and complete the HELLO handshake."""
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
            self.server_info = self._exchange(self._hello_frame(),
                                              protocol.WELCOME)
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
                write_frame_sync(self._sock, {"kind": protocol.GOODBYE},
                                 max_bytes=self.max_frame_bytes)
            except OSError:
                pass
            self._drop()

    def __enter__(self) -> "S2SClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, frame: dict, expected: str) -> dict:
        """One round trip.  A reply that fails the id check, a transport
        error or a socket timeout closes the connection: the reply still
        owed on it must never be read as the answer to the next
        request."""
        try:
            write_frame_sync(self._sock, frame,
                             max_bytes=self.max_frame_bytes)
            return self._interpret(
                read_frame_sync(self._sock, max_bytes=self.max_frame_bytes),
                frame, expected)
        except ProtocolError:
            self._drop()
            raise
        except OSError as exc:  # includes the socket timeout
            self._drop()
            raise TransportError(exc) from exc

    def _drive(self, operation):
        """Run one operation, blocking on each exchange it yields."""
        self.connect()
        try:
            frame, expected = next(operation)
            while True:
                frame["id"] = next(self._ids)
                frame, expected = operation.send(
                    self._exchange(frame, expected))
        except StopIteration as stop:
            return stop.value
