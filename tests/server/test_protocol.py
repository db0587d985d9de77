"""Frame codec unit tests: framing, limits, malformed input."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.server.protocol import (MAX_FRAME_BYTES, GarbledFrameError,
                                   OversizedFrameError, TornFrameError,
                                   decode_body, encode_frame, read_frame,
                                   write_frame)


def fed(data: bytes) -> socket.socket:
    """One end of a socketpair whose peer sends ``data``, then closes."""
    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)

    def send():
        theirs.sendall(data)
        theirs.close()

    threading.Thread(target=send, daemon=True).start()
    return ours


def read_from(data: bytes, **kwargs):
    """Run read_frame against a socket pre-fed with ``data``."""
    with fed(data) as sock:
        return read_frame(sock, **kwargs)


class TestEncodeDecode:
    def test_round_trip(self):
        frame = {"kind": "QUERY", "id": 7, "s2sql": "SELECT Product"}
        encoded = encode_frame(frame)
        (length,) = struct.unpack(">I", encoded[:4])
        assert length == len(encoded) - 4
        assert decode_body(encoded[4:]) == frame

    def test_unicode_survives(self):
        frame = {"kind": "QUERY", "s2sql": 'SELECT Product WHERE name = "Čašió"'}
        assert decode_body(encode_frame(frame)[4:]) == frame

    def test_encode_rejects_oversized(self):
        with pytest.raises(OversizedFrameError):
            encode_frame({"kind": "X", "blob": "a" * 2048}, max_bytes=1024)

    def test_decode_rejects_non_json(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b"\xff\xfenot json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b'[1, 2, 3]')

    def test_decode_rejects_missing_kind(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b'{"id": 1}')


class TestAsyncRead:
    """The reads once made over a fed asyncio stream, over a socket."""

    def test_reads_one_frame(self):
        frame = {"kind": "STATUS", "id": 1}
        assert read_from(encode_frame(frame)) == frame

    def test_clean_eof_returns_none(self):
        assert read_from(b"") is None

    def test_eof_inside_header_is_torn(self):
        with pytest.raises(TornFrameError):
            read_from(b"\x00\x00")

    def test_eof_inside_body_is_torn(self):
        with pytest.raises(TornFrameError):
            read_from(encode_frame({"kind": "STATUS"})[:-3])

    def test_oversized_rejected_from_header_alone(self):
        # Only the 4 header bytes arrive; the declared length is enough
        # to refuse — the body is never waited for (hostile lengths
        # cannot balloon memory).
        with pytest.raises(OversizedFrameError):
            read_from(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_custom_ceiling(self):
        data = encode_frame({"kind": "X", "pad": "a" * 600})
        with pytest.raises(OversizedFrameError):
            read_from(data, max_bytes=512)

    def test_garbage_body(self):
        body = b"<html>not a frame</html>"
        with pytest.raises(GarbledFrameError):
            read_from(struct.pack(">I", len(body)) + body)

    def test_two_frames_back_to_back(self):
        data = encode_frame({"kind": "A"}) + encode_frame({"kind": "B"})

        with fed(data) as sock:
            first, second = read_frame(sock), read_frame(sock)
        assert first == {"kind": "A"}
        assert second == {"kind": "B"}


class TestSyncRead:
    """The reader and the writer, over a real socketpair."""

    def exchange(self, payload: bytes) -> socket.socket:
        return fed(payload)

    def test_round_trip(self):
        ours, theirs = socket.socketpair()
        write_frame(ours, {"kind": "HELLO", "tenant": "t"})
        theirs.settimeout(5.0)
        assert read_frame(theirs) == {"kind": "HELLO", "tenant": "t"}
        ours.close()
        theirs.close()

    def test_clean_eof_returns_none(self):
        sock = self.exchange(b"")
        assert read_frame(sock) is None
        sock.close()

    def test_torn_header(self):
        sock = self.exchange(b"\x00\x00\x01")
        with pytest.raises(TornFrameError):
            read_frame(sock)
        sock.close()

    def test_torn_body(self):
        sock = self.exchange(encode_frame({"kind": "STATUS"})[:-2])
        with pytest.raises(TornFrameError):
            read_frame(sock)
        sock.close()

    def test_oversized_declared_length(self):
        sock = self.exchange(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(OversizedFrameError):
            read_frame(sock)
        sock.close()
