"""``S2SClient.connect()`` is all or nothing.

A handshake the server refuses (bad token, unsupported protocol
revision), one that times out, or a connection that cannot be opened at
all leaves the client with no socket, so the next call shakes hands
afresh and fails the same way instead of writing to a dead connection.
"""

from __future__ import annotations

import socket
import threading

import pytest

import repro.server.client as client_module
from repro.server import (RemoteServerError, S2SClient, S2SServer,
                          ServerThread, Tenant, TenantRegistry,
                          TransportError)
from repro.server.protocol import (CODE_AUTH, CODE_BAD_REQUEST,
                                   TornFrameError, read_frame, write_frame)
from repro.workloads import B2BScenario


@pytest.fixture(scope="module")
def address():
    registry = TenantRegistry()
    registry.add(Tenant("acme", B2BScenario(n_sources=1, n_products=2,
                                            seed=7).build_middleware(),
                        token="s3cret", owned=True))
    with ServerThread(S2SServer(registry)) as (host, port):
        yield host, port


def assert_refused_twice(client: S2SClient, code: str, match: str) -> None:
    for call in (client.connect, lambda: client.query("SELECT Product")):
        with pytest.raises(RemoteServerError, match=match) as excinfo:
            call()
        assert excinfo.value.code == code
        assert client._sock is None


def test_a_bad_token_leaves_no_socket(address):
    client = S2SClient(*address, tenant="acme", token="wrong")
    assert_refused_twice(client, CODE_AUTH, "unknown tenant or bad token")


def test_a_wrong_protocol_revision_leaves_no_socket(address, monkeypatch):
    monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 99)
    client = S2SClient(*address, tenant="acme", token="s3cret")
    assert_refused_twice(client, CODE_BAD_REQUEST,
                         "unsupported protocol revision 99")


def test_the_context_manager_closes_a_refused_socket(address):
    client = S2SClient(*address, tenant="acme", token="wrong")
    with pytest.raises(RemoteServerError):
        with client:
            pass  # pragma: no cover - never entered
    assert client._sock is None


def test_a_good_handshake_after_a_refused_one(address):
    client = S2SClient(*address, tenant="acme", token="wrong")
    with pytest.raises(RemoteServerError):
        client.connect()
    client.token = "s3cret"
    with client:
        assert len(client.query("SELECT Product")) == 2


def test_a_silent_server_times_the_handshake_out():
    with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
        client = S2SClient("127.0.0.1", listener.getsockname()[1],
                           timeout=0.2)
        with pytest.raises(TransportError, match="mid-request"):
            client.connect()
        assert client._sock is None


def test_a_closed_port_is_a_typed_error_naming_the_address():
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = S2SClient("127.0.0.1", port)
    with pytest.raises(TransportError,
                       match=f"cannot connect to 127.0.0.1:{port}: "
                             f"ConnectionRefusedError"):
        client.connect()
    assert client._sock is None


def one_shot_listener(mode: str):
    """A listener that accepts one connection and closes it: after
    reading the HELLO (``"read"``, a clean EOF), with the HELLO arrived
    but unread (``"unread"``, a reset), or at once (``"early"``).
    Returns the port and the serving thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                if mode == "read":
                    read_frame(conn)
                elif mode == "unread":
                    conn.recv(1, socket.MSG_PEEK)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


@pytest.mark.parametrize("mode", ["read", "unread", "early"])
def test_a_server_closing_before_welcome_is_a_transport_error(mode,
                                                              monkeypatch):
    """Whether or not the server read the HELLO, a connection it closed
    before WELCOME was never opened."""
    port, thread = one_shot_listener(mode)
    if mode == "early":  # the HELLO leaves only once the server has closed
        real_connect = socket.create_connection

        def connect_then_wait(*args, **kwargs):
            sock = real_connect(*args, **kwargs)
            thread.join(5.0)
            return sock

        monkeypatch.setattr(client_module.socket, "create_connection",
                            connect_then_wait)
    client = S2SClient("127.0.0.1", port, timeout=5.0)
    try:
        with pytest.raises(TransportError,
                           match=f"cannot connect to 127.0.0.1:{port}"):
            client.connect()
        assert client._sock is None
    finally:
        thread.join(5.0)
        assert not thread.is_alive()


def test_an_eof_after_welcome_is_a_torn_frame():
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                write_frame(conn, {"kind": "WELCOME", "protocol": 1})
                read_frame(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = S2SClient("127.0.0.1", listener.getsockname()[1], timeout=5.0)
    try:
        client.connect()
        with pytest.raises(TornFrameError):
            client.status()
        assert client._sock is None
    finally:
        client.close()
        thread.join(5.0)
        assert not thread.is_alive()
