"""A reply that arrives after its request was given up on must never be
served to the next request.

Driven against a scripted fake server (no ``S2SServer``): it answers the
n-th request after ``delays[n]`` seconds and stamps each reply with the
request's serial number, so a test can tell *which* request a reply
belongs to.  Both clients run the same scenarios."""

import asyncio
import socket
import threading
import time

import pytest

from repro.server import (AsyncS2SClient, ProtocolError, S2SClient,
                          TransportError)
from repro.server.protocol import read_frame_sync, write_frame_sync


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
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn:
                read_frame_sync(conn)  # HELLO
                write_frame_sync(conn, {"kind": "WELCOME", "protocol": 1})
                while True:
                    frame = read_frame_sync(conn)
                    if frame is None or frame["kind"] == "GOODBYE":
                        return
                    with self._lock:
                        serial = self.served
                        self.served += 1
                    time.sleep(self.delays[serial]
                               if serial < len(self.delays) else 0.0)
                    reply_id = -1 if self.wrong_id else frame["id"]
                    write_frame_sync(conn, {"kind": "STATUS_OK",
                                            "id": reply_id,
                                            "serial": serial})
        except OSError:
            pass  # the client hung up on a late reply — the point

    def close(self) -> None:
        self._listener.close()


class SyncDriver:
    """Scenario steps against the blocking client."""

    gives_up_with = ProtocolError  # the typed TransportError

    def __init__(self, port: int) -> None:
        self.client = S2SClient("127.0.0.1", port, timeout=0.2)

    def status(self, *, patience: float | None = None) -> dict:
        return self.client.status()  # patience is the socket timeout

    def connected(self) -> bool:
        return self.client._sock is not None

    def close(self) -> None:
        self.client.close()


class AsyncDriver:
    """The same steps against the asyncio client (one private loop)."""

    gives_up_with = asyncio.TimeoutError  # wait_for's own error

    def __init__(self, port: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.client = AsyncS2SClient("127.0.0.1", port)

    def status(self, *, patience: float | None = None) -> dict:
        return self.loop.run_until_complete(
            asyncio.wait_for(self.client.status(), patience))

    def connected(self) -> bool:
        return self.client._writer is not None

    def close(self) -> None:
        self.loop.run_until_complete(self.client.aclose())
        self.loop.close()


@pytest.fixture(params=[SyncDriver, AsyncDriver], ids=["sync", "async"])
def driver_cls(request):
    return request.param


def test_late_reply_is_not_served_to_the_next_request(driver_cls):
    server = ScriptedServer(delays=[0.6, 0.0])
    driver = driver_cls(server.port)
    try:
        with pytest.raises(driver.gives_up_with):
            driver.status(patience=0.2)
        # Giving up mid-request closes the connection ...
        assert not driver.connected()
        # ... so the next request reconnects and gets *its own* answer,
        # not request 0's frame arriving 0.4 s later.
        assert driver.status(patience=2.0) == {"serial": 1}
    finally:
        driver.close()
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


def test_reply_with_another_requests_id_is_refused(driver_cls):
    server = ScriptedServer(delays=[], wrong_id=True)
    driver = driver_cls(server.port)
    try:
        with pytest.raises(ProtocolError, match="carries id -1"):
            driver.status(patience=2.0)
        assert not driver.connected()
    finally:
        driver.close()
        server.close()
