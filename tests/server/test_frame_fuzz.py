"""Frame fuzzing: only :class:`ProtocolError` escapes the frame readers.

The frame boundary is the first thing a hostile or broken peer reaches.
Whatever bytes arrive, :func:`decode_body`, the asyncio reader
(:func:`read_frame`, over a fed ``StreamReader``) and the blocking reader
(:func:`read_frame_sync`, over a ``socketpair``) either return frames or
raise a ``ProtocolError`` subclass, promptly; and for the same bytes the
two readers return the same frames and end the same way.  Streams are
drawn from a seed (``S2S_DIFF_SEED``; CI runs a second value): valid
frames, garbage bodies, hostile bodies, random and mutated headers, and
each stream torn at every offset.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import struct
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.server import S2SServer, ServerThread
from repro.server.protocol import (GarbledFrameError, ProtocolError,
                                   decode_body, encode_frame, read_frame,
                                   read_frame_sync)
from repro.workloads import B2BScenario

SEED = int(os.environ.get("S2S_DIFF_SEED", "27"))

#: the fuzz's frame ceiling: small, so random headers hit it
LIMIT = 512

#: bodies that broke the decoder's contract, each a bare exception once
DEEP_ARRAY = b"[" * 100_000
LONG_INTEGER = b'{"kind": "QUERY", "id": ' + b"7" * 5000 + b"}"
HOSTILE = [DEEP_ARRAY, LONG_INTEGER, b'{"kind": ' * 5000,
           b'{"kind": "Q", "x": 1e999999}', b'{"kind": "\\ud800"}',
           b'{"kind": "Q"} trailing', b"\xc3\x28", b"", b"null"]


def frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("body", HOSTILE, ids=range(len(HOSTILE)))
def test_decode_body_raises_only_garbled_frame_errors(body):
    try:
        assert isinstance(decode_body(body), dict)
    except GarbledFrameError:
        pass


@pytest.mark.parametrize("body", [DEEP_ARRAY, LONG_INTEGER],
                         ids=["deep-array", "long-integer"])
def test_decoder_limits_are_garbled_frames(body):
    with pytest.raises(GarbledFrameError):
        decode_body(body)


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
                    read_frame(reader, max_bytes=max_bytes), 5)
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
        return outcome(lambda: read_frame_sync(ours, max_bytes=max_bytes))
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
            reply = read_frame_sync(sock)
            assert (reply["kind"], reply["code"]) == ("ERROR", "BAD_FRAME")
            assert read_frame_sync(sock) is None  # and hangs up
    assert metrics.value("server_frame_errors_total",
                         kind="GarbledFrameError") == 1
    s2s.close()
