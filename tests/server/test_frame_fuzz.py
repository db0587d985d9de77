"""Frame fuzzing: only :class:`ProtocolError` escapes the frame readers,
and only :class:`S2SError` escapes the client.

The frame boundary is the first thing a hostile or broken peer reaches.
Whatever bytes arrive, :func:`decode_body`, the reader
(:func:`read_frame`, over a ``socketpair``) and the 2.18 asyncio reader it
replaced (frozen in ``_frozen_stream_reader.py``, over a fed
``StreamReader``) either return frames or raise a ``ProtocolError``
subclass, promptly; and for the same bytes the two readers return the
same frames and end the same way.  Streams are
drawn from a seed (``S2S_DIFF_SEED``; CI runs a second value): valid
frames, garbage bodies, hostile bodies, random and mutated headers, and
each stream torn at every offset.

One frame further in, a scripted server answers every client operation
with a well-framed reply of the right ``id`` and ``kind`` whose fields
hold random JSON values, drawn from the same seed: the client raises an
``S2SError`` or returns, and never waits on a reply that is not coming.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import socket
import struct
import sys
import threading

import pytest

from repro.errors import CodecError, S2SError
from repro.obs import MetricsRegistry
from repro.server import S2SClient, S2SServer, ServerThread
from repro.server.protocol import (PROTOCOL_VERSION, GarbledFrameError,
                                   ProtocolError, decode_body, encode_frame,
                                   read_frame, write_frame)
from repro.workloads import B2BScenario
from tests.server._frozen_stream_reader import read_frame as frozen_read_frame

SEED = int(os.environ.get("S2S_DIFF_SEED", "27"))

#: the fuzz's frame ceiling: small, so random headers hit it
LIMIT = 512

#: bodies that broke the decoder's contract, each a bare exception once
DEEP_ARRAY = b"[" * 100_000
LONG_INTEGER = b'{"kind": "QUERY", "id": ' + b"7" * 5000 + b"}"
#: a QUERY whose condition escapes a lone surrogate (an INTERNAL answer
#: and a logged traceback at 2.22)
SURROGATE_QUERY = (b'{"kind": "QUERY", "id": 1, '
                   b'"s2sql": "SELECT product WHERE brand = \\"\\ud800\\""}')
HOSTILE = [DEEP_ARRAY, LONG_INTEGER, b'{"kind": ' * 5000,
           b'{"kind": "Q", "x": 1e999999}', b'{"kind": "\\ud800"}',
           b'{"kind": "Q"} trailing', b"\xc3\x28", b"", b"null",
           SURROGATE_QUERY]


def frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("body", HOSTILE, ids=range(len(HOSTILE)))
def test_decode_body_raises_only_garbled_frame_errors(body):
    try:
        assert isinstance(decode_body(body), dict)
    except GarbledFrameError:
        pass


@pytest.mark.parametrize("body", [
    DEEP_ARRAY, LONG_INTEGER, b'{"kind": "\\ud800"}', SURROGATE_QUERY,
    b'{"kind": "Q", "v": ["\\uDC00"]}', b'{"kind": "Q", "\\udbff": 1}'],
    ids=["deep-array", "long-integer", "surrogate-kind", "surrogate-query",
         "surrogate-in-a-list", "surrogate-key"])
def test_decoder_limits_are_garbled_frames(body):
    with pytest.raises(GarbledFrameError):
        decode_body(body)


def test_a_lone_surrogate_nested_to_the_decoder_limit_is_garbled():
    """The surrogate check walks what the decoder returned without
    recursing, so no depth the decoder accepts escapes untyped."""
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 5):
        body = (b'{"kind": "Q", "v": ' + b"[" * depth + b'"\\ud800"'
                + b"]" * depth + b"}")
        with pytest.raises(GarbledFrameError):
            decode_body(body)


def test_a_surrogate_pair_escape_decodes_to_one_character():
    assert decode_body(b'{"kind": "Q", "v": "\\ud83d\\ude00"}')["v"] == \
        "\U0001f600"


def test_a_lone_surrogate_has_no_frame():
    with pytest.raises(CodecError, match="lone surrogate"):
        encode_frame({"kind": "QUERY", "s2sql": "brand = \"\ud800\""})


# -- the two readers on the same bytes ---------------------------------------

def outcome(read) -> tuple:
    """Every frame ``read()`` returns until the end of the stream, then
    how it ended: ``"eof"`` or the ProtocolError class that ended it."""
    frames = []
    while True:
        try:
            payload = read()
        except ProtocolError as exc:
            return tuple(frames), type(exc)
        if payload is None:
            return tuple(frames), "eof"
        frames.append(repr(payload))  # repr: NaN is not equal to itself


def async_outcome(loop, data: bytes, max_bytes: int) -> tuple:
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            try:
                payload = await asyncio.wait_for(
                    frozen_read_frame(reader, max_bytes=max_bytes), 5)
            except ProtocolError as exc:
                return tuple(frames), type(exc)
            if payload is None:
                return tuple(frames), "eof"
            frames.append(repr(payload))
    return loop.run_until_complete(go())


def sync_outcome(data: bytes, max_bytes: int) -> tuple:
    ours, theirs = socket.socketpair()
    ours.settimeout(5)  # a hang fails the test instead of stalling it

    def send():
        theirs.sendall(data)
        theirs.shutdown(socket.SHUT_WR)

    writer = None
    try:
        if len(data) < 32_768:
            send()
        else:  # more than the socket buffer takes before a read
            writer = threading.Thread(target=send)
            writer.start()
        return outcome(lambda: read_frame(ours, max_bytes=max_bytes))
    finally:
        if writer is not None:
            writer.join()
        ours.close()
        theirs.close()


def valid_body(rng: random.Random) -> bytes:
    payload = {"kind": rng.choice(["QUERY", "STATUS", "HELLO", "x"]),
               "id": rng.randrange(-5, 10**6)}
    for _ in range(rng.randrange(3)):
        payload[rng.choice("abcdé")] = rng.choice(
            [None, True, 1.5, "Čašió", [1, [2, {"c": "d"}]], -0.0])
    return encode_frame(payload)[4:]


def garbage(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randrange(12)))


def mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three byte flips, insertions, deletions or
    header rewrites."""
    data = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(data) + 1)
        change = rng.choice(["flip", "insert", "delete", "header"])
        if change == "flip" and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif change == "insert":
            data[at:at] = bytes([rng.randrange(256)])
        elif change == "delete":
            del data[at:at + rng.randrange(1, 4)]
        else:
            data[at:at] = struct.pack(">I", rng.choice(
                [0, 1, 7, LIMIT, LIMIT + 1, 2**31, 2**32 - 1,
                 rng.randrange(2**32)]))
    return bytes(data)


def stream(rng: random.Random) -> bytes:
    parts = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.random()
        if kind < 0.6:
            parts.append(frame(valid_body(rng)))
        elif kind < 0.8:
            parts.append(frame(garbage(rng)))
        else:
            parts.append(struct.pack(">I", rng.randrange(2**32))
                         + garbage(rng))
    data = b"".join(parts)
    return mutated(rng, data) if rng.random() < 0.5 else data


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def assert_readers_agree(loop, data: bytes, max_bytes: int = LIMIT,
                         drawn: set | None = None) -> None:
    expected = async_outcome(loop, data, max_bytes)
    assert sync_outcome(data, max_bytes) == expected, data[:64]
    if drawn is not None:
        drawn.add(expected[1] if expected[1] == "eof"
                  else expected[1].__name__)


def test_both_readers_agree_on_random_streams_torn_at_every_offset(loop):
    drawn: set = set()
    for index in range(100):
        rng = random.Random(f"frames:{SEED}:{index}")
        data = stream(rng)
        for cut in range(len(data) + 1):
            assert_readers_agree(loop, data[:cut], drawn=drawn)
    assert drawn == {"eof", "TornFrameError", "OversizedFrameError",
                     "GarbledFrameError"}


@pytest.mark.parametrize("body", HOSTILE, ids=range(len(HOSTILE)))
def test_both_readers_agree_on_hostile_bodies(loop, body):
    data = frame(body) + frame(b'{"kind": "STATUS"}')
    assert_readers_agree(loop, data, max_bytes=len(DEEP_ARRAY))
    for cut in range(0, len(data), max(1, len(data) // 50)):
        assert_readers_agree(loop, data[:cut], max_bytes=len(DEEP_ARRAY))


# -- the server's answer -----------------------------------------------------

@pytest.mark.parametrize("body", [DEEP_ARRAY, LONG_INTEGER],
                         ids=["deep-array", "long-integer"])
def test_server_answers_a_decoder_limit_with_bad_frame(body):
    metrics = MetricsRegistry()
    s2s = B2BScenario(n_sources=1, n_products=2, seed=7).build_middleware()
    with ServerThread(S2SServer({"t": s2s}, metrics=metrics)) as (host,
                                                                   port):
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(frame(body))
            reply = read_frame(sock)
            assert (reply["kind"], reply["code"]) == ("ERROR", "BAD_FRAME")
            assert read_frame(sock) is None  # and hangs up
    assert metrics.value("server_frame_errors_total",
                         kind="GarbledFrameError") == 1
    s2s.close()


def test_server_refuses_a_lone_surrogate_without_a_traceback(caplog):
    s2s = B2BScenario(n_sources=1, n_products=2, seed=7).build_middleware()
    with caplog.at_level(logging.ERROR, logger="repro.server"):
        with ServerThread(S2SServer({"t": s2s})) as (host, port):
            with socket.create_connection((host, port),
                                          timeout=5.0) as sock:
                write_frame(sock, {"kind": "HELLO", "tenant": "t",
                                   "protocol": PROTOCOL_VERSION})
                assert read_frame(sock)["kind"] == "WELCOME"
                sock.sendall(frame(SURROGATE_QUERY))
                reply = read_frame(sock)
                assert (reply["kind"], reply["code"]) == ("ERROR",
                                                          "BAD_FRAME")
                assert "lone surrogate" in reply["error"]
    assert caplog.records == []
    s2s.close()


def test_client_refuses_a_lone_surrogate_before_sending():
    s2s = B2BScenario(n_sources=1, n_products=2, seed=7).build_middleware()
    with ServerThread(S2SServer({"t": s2s})) as (host, port):
        with S2SClient(host, port, tenant="t", timeout=5.0) as client:
            with pytest.raises(CodecError, match="lone surrogate"):
                client.query('SELECT product WHERE brand = "\ud800"')
            assert len(client.query("SELECT product")) == 2  # still in step
    s2s.close()


# -- the client on malformed replies -----------------------------------------

#: request kind -> the reply kind that answers it
ANSWERS = {"HELLO": "WELCOME", "QUERY": "RESULT", "QUERY_MANY": "RESULTS",
           "PARSE": "PARSED", "BIND": "BOUND", "EXECUTE": "RESULT",
           "SPARQL": "SPARQL_RESULT", "EXPLAIN": "EXPLAINED",
           "STATUS": "STATUS_OK", "METRICS": "METRICS_OK"}

#: reply kind -> the fields the server sends in it
REPLY_FIELDS = {"WELCOME": ["protocol", "server", "tenant"],
                "RESULT": ["result"], "RESULTS": ["results"],
                "PARSED": ["name", "query_class", "attributes"],
                "BOUND": ["portal"],
                "SPARQL_RESULT": ["ask", "variables", "rows"],
                "EXPLAINED": ["rendered"],
                "STATUS_OK": ["tenant", "server"],
                "METRICS_OK": ["metrics", "text"],
                "RETRY_AFTER": ["retry_after", "queue_depth"],
                "ERROR": ["code", "error"]}

def sparql_rows(client: S2SClient):
    answer = client.sparql("ASK {}")
    return answer if isinstance(answer, bool) else answer.simple_rows()


#: every client operation, each consuming what it returns (the first
#: reconnects, so the handshake is fuzzed too)
OPERATIONS = [
    lambda client: (client.close(), client.connect()),
    lambda client: len(client.query("SELECT Product")),
    lambda client: [len(result)
                    for result in client.query_many(["SELECT Product"])],
    lambda client: client.prepare("p", "SELECT Product").execute(
        merge_key=["brand"]),
    sparql_rows,
    lambda client: client.explain("SELECT Product"),
    lambda client: client.status(),
    lambda client: client.metrics(),
]


class ReplyServer:
    """Answers every request on every connection with ``answer(frame)``,
    stamped with the request's ``id``; ``close()`` stops every thread it
    started."""

    def __init__(self, answer):
        self.answer = answer
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._connections: list[socket.socket] = []
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down
            self._connections.append(conn)
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn:
                while True:
                    request = read_frame(conn)
                    if request is None or request["kind"] == "GOODBYE":
                        return
                    reply = self.answer(request)
                    if "id" in request:
                        reply["id"] = request["id"]
                    write_frame(conn, reply)
        except OSError:
            pass  # the client hung up

    def close(self) -> None:
        """Stop every thread this server started.  On Linux close()
        alone does not wake a thread blocked in accept() or recv();
        shutdown() does."""
        _shut(self._listener)
        self._listener.close()
        self._threads[0].join(5.0)  # no connection is accepted after this
        for conn in self._connections:
            _shut(conn)
        for thread in self._threads:
            thread.join(5.0)
            assert not thread.is_alive(), thread.name


def _shut(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected, or already closed by its thread


def json_value(rng: random.Random, depth: int = 0):
    """A random JSON value, nested at most three deep."""
    pick = rng.randrange(7 if depth < 3 else 5)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick == 1:
        return rng.choice([0, 1, -3, 2**40])
    if pick == 2:
        return rng.choice([0.0, 0.25, -1.5, 1e300])
    if pick == 3:
        return rng.choice(["", "soon", "RESULT", "Čašió"])
    if pick == 4:
        return {}
    if pick == 5:
        return [json_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {rng.choice(["text", "type", "result"]): json_value(rng, depth + 1)
            for _ in range(rng.randrange(1, 3))}


def fuzzed_reply(rng: random.Random, request: dict) -> dict:
    """The right reply kind (sometimes RETRY_AFTER or ERROR instead),
    each of its fields random or absent."""
    kind = ANSWERS[request["kind"]]
    if rng.random() < 0.2:
        kind = rng.choice(["RETRY_AFTER", "ERROR"])
    return {"kind": kind,
            **{name: json_value(rng) for name in REPLY_FIELDS[kind]
               if rng.random() < 0.85}}


def test_client_lets_only_s2s_errors_out_of_random_replies():
    rng = random.Random(f"replies:{SEED}")
    server = ReplyServer(lambda request: fuzzed_reply(rng, request))
    client = S2SClient("127.0.0.1", server.port, timeout=5.0)
    drawn: set = set()
    try:
        for index in range(1500):
            try:
                OPERATIONS[index % len(OPERATIONS)](client)
                drawn.add("ok")
            except ProtocolError as exc:  # a timeout, i.e. a hang
                pytest.fail(f"operation {index}: {exc!r}")
            except S2SError as exc:
                drawn.add(type(exc).__name__)
    finally:
        client.close()
        server.close()
    assert {"ok", "CodecError", "ServerBusyError",
            "RemoteServerError"} <= drawn


def welcome_then(kind: str, **fields):
    """An answer: WELCOME to HELLO, then ``kind`` with ``fields``."""
    def answer(request: dict) -> dict:
        if request["kind"] == "HELLO":
            return {"kind": "WELCOME", "protocol": 1}
        return {"kind": kind, **fields}
    return answer


@pytest.mark.parametrize("operation, answer", [
    (lambda c: c.status(), welcome_then("RETRY_AFTER", retry_after="soon")),
    (lambda c: c.status(), welcome_then("RETRY_AFTER", retry_after=None)),
    (lambda c: c.status(), welcome_then("RETRY_AFTER", retry_after=1,
                                        queue_depth="deep")),
    (lambda c: c.sparql("SELECT ?s {}"),
     welcome_then("SPARQL_RESULT", variables=3, rows=[])),
    (lambda c: c.sparql("SELECT ?s {}"),
     welcome_then("SPARQL_RESULT", variables=["s"], rows=[1])),
    (lambda c: c.sparql("ASK {}"), welcome_then("SPARQL_RESULT", ask=1)),
    (lambda c: c.explain("SELECT Product"),
     welcome_then("EXPLAINED", rendered=5)),
    (lambda c: c.prepare("p", "SELECT Product"),
     welcome_then("PARSED", query_class="Product", attributes=None)),
    (lambda c: c.metrics(), welcome_then("METRICS_OK", metrics={})),
    (lambda c: c.metrics(), welcome_then("METRICS_OK", metrics={}, text=5)),
], ids=["retry-after-text", "retry-after-null", "queue-depth-text",
        "variables-int", "rows-of-ints", "ask-int", "rendered-int",
        "attributes-null", "metrics-text-missing", "metrics-text-int"])
def test_a_malformed_reply_field_is_a_codec_error(operation, answer):
    server = ReplyServer(answer)
    try:
        with S2SClient("127.0.0.1", server.port, timeout=5.0) as client:
            with pytest.raises(CodecError):
                operation(client)
    finally:
        server.close()

