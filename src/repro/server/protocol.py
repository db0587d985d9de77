"""The S2S wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  The object always
carries a ``kind`` (the frame type) and, for request/response pairs, an
``id`` the server echoes back so clients can correlate pipelined
requests.  JSON over a binary length prefix keeps the framing trivial to
implement in any language while making message boundaries explicit —
the same trade the Postgres extended protocol makes with its typed,
length-prefixed messages (parse/bind/execute maps directly onto the
PARSE/BIND/EXECUTE frames here).

Client → server frames::

    HELLO    {tenant, token?, protocol}      open + authenticate a session
    QUERY    {id, s2sql, merge_key?}         one-shot S2SQL query
    QUERY_MANY {id, queries, merge_key?}     batched queries, one shared scan
    PARSE    {id, name, s2sql}               prepare a named statement
    BIND     {id, name, portal?, merge_key?} bind a portal over a statement
    EXECUTE  {id, portal}                    run a bound portal
    SPARQL   {id, sparql}                    SPARQL over the tenant's store
    EXPLAIN  {id, s2sql, merge_key?}         traced execution, rendered tree
    STATUS   {id}                            tenant + server status snapshot
    METRICS  {id}                            tenant + server metrics export
    GOODBYE  {}                              orderly connection close

Server → client frames::

    WELCOME      {protocol, server, tenant}
    RESULT       {id, result}                 wire-encoded QueryResult
    RESULTS      {id, results}                one wire result per query
    PARSED       {id, name, query_class, attributes}
    BOUND        {id, portal}
    SPARQL_RESULT{id, ask?|variables+rows}
    EXPLAINED    {id, rendered}
    STATUS_OK    {id, ...snapshot}
    METRICS_OK   {id, metrics}
    RETRY_AFTER  {id, retry_after, queue_depth}   admission control pushback
    ERROR        {id?, code, error}
    GOODBYE      {}

Framing errors are typed so the server can distinguish a client that
went away mid-frame (:class:`TornFrameError`), one that sent a frame
over the negotiated size limit (:class:`OversizedFrameError` — the
declared length is rejected *before* the payload is read, so a hostile
length cannot balloon memory) and one that sent bytes that are not a
JSON object (:class:`GarbledFrameError`).
"""

from __future__ import annotations

import json
import socket
import struct

from ..core.instances.codec import compact_json, has_lone_surrogate, utf8
from ..errors import S2SError

#: Protocol revision; HELLO carries it and the server refuses mismatches.
PROTOCOL_VERSION = 2

#: Default per-frame size ceiling (header-declared length, in bytes).
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")


def check_port(port: int) -> int:
    """``port`` when it is a TCP port number, else a ValueError naming it.
    ``getaddrinfo`` takes an out-of-range port modulo 65536 (70000 binds
    or reaches 4464), so the server's config and the client check first."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0-65535, got {port}")
    return port


# -- frame kinds ----------------------------------------------------------

HELLO = "HELLO"
WELCOME = "WELCOME"
QUERY = "QUERY"
QUERY_MANY = "QUERY_MANY"
PARSE = "PARSE"
BIND = "BIND"
EXECUTE = "EXECUTE"
SPARQL = "SPARQL"
EXPLAIN = "EXPLAIN"
STATUS = "STATUS"
METRICS = "METRICS"
GOODBYE = "GOODBYE"
RESULT = "RESULT"
RESULTS = "RESULTS"
PARSED = "PARSED"
BOUND = "BOUND"
SPARQL_RESULT = "SPARQL_RESULT"
EXPLAINED = "EXPLAINED"
STATUS_OK = "STATUS_OK"
METRICS_OK = "METRICS_OK"
RETRY_AFTER = "RETRY_AFTER"
ERROR = "ERROR"

#: Error codes carried on ERROR frames.
CODE_AUTH = "AUTH"
CODE_BAD_FRAME = "BAD_FRAME"
CODE_BAD_REQUEST = "BAD_REQUEST"
CODE_DEADLINE = "DEADLINE_EXCEEDED"
CODE_INTERNAL = "INTERNAL"
CODE_QUERY = "QUERY_ERROR"
CODE_SHUTTING_DOWN = "SHUTTING_DOWN"
CODE_UNKNOWN_KIND = "UNKNOWN_KIND"


class ProtocolError(S2SError):
    """A violation of the frame protocol (framing, not semantics)."""


class TornFrameError(ProtocolError):
    """The peer disappeared mid-frame (EOF inside header or body)."""


class OversizedFrameError(ProtocolError):
    """A frame header declared a length over the configured ceiling."""


class GarbledFrameError(ProtocolError):
    """A frame body that is not a JSON object with a ``kind``."""


class TransportError(ProtocolError):
    """The connection failed or timed out mid-request and was closed, or
    (with ``address``) could not be opened at all.

    Whether the server executed the request is unknown; the next request
    reconnects."""

    def __init__(self, cause: Exception, *,
                 address: tuple[str, int] | None = None) -> None:
        what = ("connection lost mid-request and closed" if address is None
                else f"cannot connect to {address[0]}:{address[1]}")
        super().__init__(f"{what}: {type(cause).__name__}: {cause}")


class RemoteServerError(S2SError):
    """The server answered a request with an ERROR frame.

    ``code`` is the machine-readable error class (``AUTH``,
    ``QUERY_ERROR``, ``DEADLINE_EXCEEDED``, ...); the message is the
    server's human-readable description."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServerBusyError(S2SError):
    """The server refused admission with a RETRY_AFTER frame.

    Backpressure, not failure: the request was never executed and the
    caller should retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float, *,
                 queue_depth: int | None = None) -> None:
        message = f"server busy; retry in {retry_after:.3f}s"
        if queue_depth is not None:
            message += f" (queue depth {queue_depth})"
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth


# -- encoding -------------------------------------------------------------

def encode_frame(payload: dict, *,
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Header + JSON body for one frame; raises when over the ceiling,
    and :class:`CodecError` for a string that has no UTF-8 form."""
    return pack_frame(utf8(compact_json(payload)), max_bytes=max_bytes)


def pack_frame(body: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Header + an encoded body; raises when over the ceiling."""
    if len(body) > max_bytes:
        raise OversizedFrameError(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """The frame payload, validated to be a JSON object with a kind; any
    bytes that are not — or that escape a lone surrogate, which no frame
    could carry back — raise :class:`GarbledFrameError`, and nothing else."""
    try:
        text = body.decode("utf-8")
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8, int limit
        raise GarbledFrameError(f"frame body is not valid JSON: "
                                f"{type(exc).__name__}: {exc}") from exc
    if has_lone_surrogate(text, payload):
        raise GarbledFrameError("frame body escapes a lone surrogate")
    if not isinstance(payload, dict):
        raise GarbledFrameError(
            f"frame body must be a JSON object, not {type(payload).__name__}")
    if not isinstance(payload.get("kind"), str):
        raise GarbledFrameError("frame object is missing its 'kind'")
    return payload


# -- socket I/O -------------------------------------------------------------

def _receive(sock: socket.socket, length: int) -> bytes:
    """Exactly ``length`` bytes, or fewer when the peer closed first."""
    data = bytearray()
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


def read_frame(sock: socket.socket, *,
               max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """One frame from a blocking socket, ``None`` on clean EOF at a
    boundary; the only frame reader, the server's and the client's."""
    header = _receive(sock, _HEADER.size)
    if not header:
        return None  # orderly close between frames
    if len(header) < _HEADER.size:
        raise TornFrameError(
            f"connection closed {len(header)} bytes into a frame header")
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise OversizedFrameError(
            f"declared frame length {length} exceeds the {max_bytes}-byte "
            f"limit")
    body = _receive(sock, length)
    if len(body) < length:
        raise TornFrameError(
            f"connection closed {len(body)}/{length} bytes into a frame "
            f"body")
    return decode_body(body)


def write_frame(sock: socket.socket, payload: dict, *,
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Encode and send one frame."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))
