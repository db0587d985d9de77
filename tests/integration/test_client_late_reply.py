"""A reply that arrives after its request was given up on must never be
served to the next request.

Driven against a scripted fake server (no ``S2SServer``): it answers the
n-th request after ``delays[n]`` seconds and stamps each reply with the
request's serial number, so a test can tell *which* request a reply
belongs to."""

import socket
import threading
import time

import pytest

from repro.server import ProtocolError, S2SClient, TransportError
from repro.server.protocol import read_frame, write_frame


class ScriptedServer:
    """Accepts connections; replies STATUS_OK to every request after the
    scripted delay, echoing the request id unless ``wrong_id`` is set."""

    def __init__(self, delays: list[float], *, wrong_id: bool = False):
        self.delays = delays
        self.wrong_id = wrong_id
        self.served = 0
        self._lock = threading.Lock()
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
                read_frame(conn)  # HELLO
                write_frame(conn, {"kind": "WELCOME", "protocol": 1})
                while True:
                    frame = read_frame(conn)
                    if frame is None or frame["kind"] == "GOODBYE":
                        return
                    with self._lock:
                        serial = self.served
                        self.served += 1
                    time.sleep(self.delays[serial]
                               if serial < len(self.delays) else 0.0)
                    reply_id = -1 if self.wrong_id else frame["id"]
                    write_frame(conn, {"kind": "STATUS_OK",
                                            "id": reply_id,
                                            "serial": serial})
        except OSError:
            pass  # the client hung up on a late reply — the point

    def close(self) -> None:
        """Stop every thread this server started.  On Linux close()
        alone does not wake a thread blocked in accept() or recv();
        shutdown() does (a serving thread still sleeping out its delay
        finishes it first)."""
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


def test_late_reply_is_not_served_to_the_next_request():
    server = ScriptedServer(delays=[0.6, 0.0])
    client = S2SClient("127.0.0.1", server.port, timeout=0.2)
    try:
        with pytest.raises(TransportError):
            client.status()  # gives up after the 0.2 s socket timeout
        # Giving up mid-request closes the connection ...
        assert client._sock is None
        # ... so the next request reconnects and gets *its own* answer,
        # not request 0's frame arriving 0.4 s later.
        assert client.status() == {"serial": 1}
    finally:
        client.close()
        server.close()


def test_sync_timeout_is_a_typed_error():
    server = ScriptedServer(delays=[0.6])
    client = S2SClient("127.0.0.1", server.port, timeout=0.2)
    try:
        with pytest.raises(TransportError, match="mid-request"):
            client.status()
    finally:
        client.close()
        server.close()


def test_reply_with_another_requests_id_is_refused():
    server = ScriptedServer(delays=[], wrong_id=True)
    client = S2SClient("127.0.0.1", server.port, timeout=2.0)
    try:
        with pytest.raises(ProtocolError, match="carries id -1"):
            client.status()
        assert client._sock is None
    finally:
        client.close()
        server.close()
