"""The listener and its accept thread: bind addresses, port numbers,
failed accepts, and what a stopped server does when asked to start
again."""

from __future__ import annotations

import errno
import logging
import socket

import pytest

from repro.errors import S2SError
from repro.obs import MetricsRegistry
from repro.server import S2SClient, S2SServer, ServerConfig, ServerThread
from repro.server import server as server_module
from repro.server.client import TransportError
from repro.workloads import B2BScenario


@pytest.fixture(scope="module")
def middleware():
    s2s = B2BScenario(n_sources=2, n_products=4, seed=5).build_middleware()
    yield s2s
    s2s.close()


def make_server(middleware, **config) -> S2SServer:
    return S2SServer({"default": middleware}, config=ServerConfig(**config),
                     metrics=MetricsRegistry())


def ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


def test_a_failed_accept_is_retried_not_fatal(middleware, monkeypatch,
                                              caplog):
    """Descriptors running out (EMFILE) must not end accepting for good:
    the loop logs, pauses and accepts the next client."""
    real_accept = socket.socket.accept
    failures = []

    def accept(self):
        if not failures:
            failures.append(errno.EMFILE)
            raise OSError(errno.EMFILE, "Too many open files")
        return real_accept(self)

    monkeypatch.setattr(socket.socket, "accept", accept)
    monkeypatch.setattr(server_module, "_ACCEPT_RETRY_DELAY", 0.01)
    with caplog.at_level(logging.ERROR, logger="repro.server"):
        with ServerThread(make_server(middleware)) as (host, port):
            with S2SClient(host, port, timeout=5.0) as client:
                assert len(client.query("SELECT Product")) == 4
    assert failures == [errno.EMFILE]
    assert "accept failed" in caplog.text


def test_a_connection_without_a_thread_is_dropped_alone(middleware,
                                                        monkeypatch):
    """No thread for one connection: that socket is closed, and the
    next client is served."""
    real_spawn = ServerThread._spawn
    refused = []

    def spawn(self, target, name, *args):
        if name == "repro-s2s-connection" and not refused:
            refused.append(name)
            raise RuntimeError("can't start new thread")
        return real_spawn(self, target, name, *args)

    monkeypatch.setattr(ServerThread, "_spawn", spawn)
    with ServerThread(make_server(middleware)) as (host, port):
        with pytest.raises(TransportError):
            S2SClient(host, port, timeout=5.0).connect()
        with S2SClient(host, port, timeout=5.0) as client:
            assert len(client.query("SELECT Product")) == 4
    assert refused


@pytest.mark.skipif(not ipv6_loopback(), reason="no IPv6 loopback")
def test_binds_an_ipv6_address(middleware):
    with ServerThread(make_server(middleware, host="::1")) as (host, port):
        assert host == "::1"
        with S2SClient(host, port, timeout=5.0) as client:
            assert len(client.query("SELECT Product")) == 4


def test_an_empty_host_listens_on_every_interface(middleware):
    with ServerThread(make_server(middleware, host="")) as (_, port):
        with S2SClient("127.0.0.1", port, timeout=5.0) as client:
            assert len(client.query("SELECT Product")) == 4


def test_a_stopped_server_does_not_start_again(middleware):
    thread = ServerThread(make_server(middleware))
    thread.start()
    with pytest.raises(S2SError, match="already started"):
        thread.start()
    thread.stop()
    with pytest.raises(S2SError, match="already stopped"):
        thread.start()
    with pytest.raises(S2SError, match="already stopped"):
        ServerThread(thread.server).start()


@pytest.mark.parametrize("port", [70000, -1, 65536])
def test_an_out_of_range_port_is_refused_before_any_socket(port,
                                                           monkeypatch):
    """``getaddrinfo`` takes a port modulo 65536: unchecked, 70000 would
    bind, or reach, port 4464."""
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")
    monkeypatch.setattr(socket, "create_server", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    with pytest.raises(ValueError, match=f"got {port}$"):
        ServerConfig(port=port)
    with pytest.raises(ValueError, match=f"got {port}$"):
        S2SClient("127.0.0.1", port)


@pytest.mark.parametrize("port", [0, 65535])
def test_the_ends_of_the_port_range_are_accepted(port):
    assert ServerConfig(port=port).port == port
    assert S2SClient("127.0.0.1", port).port == port
