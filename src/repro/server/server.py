"""The S2S query server: an accept thread plus one thread per connection.

One :class:`S2SServer` fronts a set of tenants (each a complete
:class:`~repro.core.middleware.S2SMiddleware`) behind the frame protocol
of :mod:`repro.server.protocol`; a :class:`ServerThread` owns its
listener and every thread it runs on.  The design goals, in order:

* **Don't melt down.**  Admission control is a counter under a
  condition (``max_inflight`` executing, ``max_queue`` waiting); a
  request that would exceed the queue is refused *immediately* with a
  RETRY_AFTER frame — never an unbounded backlog.
* **Plain calls.**  A request runs on its connection's thread through
  the middleware's blocking ``query()``/``query_many()``; a slow
  extraction holds that one connection and nothing else.
* **Deterministic time.**  Queue deadlines and idle-connection reaping
  read the injectable :class:`~repro.clock.Clock`, so backpressure and
  timeout behaviour are tested with a FakeClock and zero real sleeps
  (the ``reap_idle()`` seam mirrors ``StoreRefresher.tick()``).
* **Graceful drain.**  ``ServerThread.stop()`` closes the listener, lets
  in-flight requests finish (bounded by ``drain_timeout_seconds``),
  closes connections and server-owned tenants, and joins its threads.

Frames on one connection are handled strictly in order (responses never
interleave); concurrency comes from connections, which is also what
makes per-connection prepared-statement state trivial.
"""

from __future__ import annotations

import logging
import math
import socket
import threading
import time

from .._version import __version__
from ..clock import Clock, SystemClock
from ..core.query.parser import parse_s2sql
from ..errors import FleetQuotaExceeded, QueryError, S2SError
from ..obs import DEFAULT_REGISTRY, MetricsRegistry, Tracer
from . import protocol
from .codec import encode_result_frame, sparql_to_wire
from .config import ServerConfig
from .protocol import (GarbledFrameError, OversizedFrameError, ProtocolError,
                       TornFrameError, read_frame, write_frame)
from .tenants import Tenant, TenantRegistry

logger = logging.getLogger("repro.server")

#: Request kinds that execute tenant work and go through admission.
_HEAVY_KINDS = frozenset({protocol.QUERY, protocol.QUERY_MANY,
                          protocol.EXECUTE, protocol.SPARQL,
                          protocol.EXPLAIN})

#: Latency buckets for the request histogram (seconds).
_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                    1.0, 2.5, 5.0, 10.0)


class _Connection:
    """One accepted socket: its session state and idle bookkeeping."""

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        #: when the last frame arrived, on the server's clock
        self.last_activity = now
        self.tenant: Tenant | None = None  # set by the HELLO handshake
        #: statement name → parsed S2SQL AST (never re-parsed)
        self.statements: dict = {}
        #: portal name → (parsed AST, merge_key)
        self.portals: dict = {}

    def abort(self) -> None:
        """Shut the socket down (under the server's lock, which guards
        its close); the session's pending read sees EOF."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer already reset it


class S2SServer:
    """Serve S2S middleware tenants over the frame protocol.

    ``tenants`` is a :class:`TenantRegistry` or a plain
    ``{name: middleware}`` dict (open tenants).  ``clock`` drives queue
    deadlines and idle reaping; ``metrics`` receives the
    ``server_requests_total{tenant,kind,status}`` / ``server_inflight``
    / ``server_queue_depth`` / ``server_request_seconds`` families.
    :class:`ServerThread` hands each connection to :meth:`serve`.
    """

    def __init__(self, tenants: "TenantRegistry | dict", *,
                 config: ServerConfig | None = None,
                 clock: Clock | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if not isinstance(tenants, TenantRegistry):
            tenants = TenantRegistry.of(dict(tenants))
        if not len(tenants):
            raise S2SError("a server needs at least one tenant")
        self.tenants = tenants
        self.config = config or ServerConfig()
        self.clock = clock or SystemClock()
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else DEFAULT_REGISTRY
        #: guards the counters and the connection set; admission waits on it
        self._cond = threading.Condition()
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._waiting = 0
        #: set by :meth:`close`: requests are refused, the reaper wakes
        self._closed = threading.Event()
        self._started_at = self.clock.monotonic()
        self._set_gauges()

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Refuse new requests (SHUTTING_DOWN), give in-flight ones up to
        ``drain_timeout_seconds``, shut every connection down and close
        the tenant middlewares the server *owns* (built by it, e.g.
        through the CLI); injected ones are left to their owners."""
        with self._cond:
            self._closed.set()
            self._cond.notify_all()  # queued requests are refused now
            if drain and not self._cond.wait_for(
                    lambda: self._inflight == 0 and self._waiting == 0,
                    self.config.drain_timeout_seconds):
                logger.warning(
                    "drain timed out with %d request(s) in flight",
                    self._inflight + self._waiting)
            for connection in self._connections:
                connection.abort()
        for tenant in self.tenants:
            if tenant.owned:
                tenant.middleware.close()

    @property
    def draining(self) -> bool:
        """True once :meth:`close` has begun refusing new requests."""
        return self._closed.is_set()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an execution slot."""
        return self._waiting

    @property
    def inflight(self) -> int:
        """Requests currently executing."""
        return self._inflight

    def reap_idle(self) -> int:
        """Close connections idle past the timeout; returns the count.
        The deterministic seam: the reaper thread calls this on a
        real-time poll, tests after advancing a FakeClock."""
        timeout = self.config.idle_timeout_seconds
        if timeout is None:
            return 0
        now = self.clock.monotonic()
        with self._cond:
            idle = [connection for connection in self._connections
                    if now - connection.last_activity >= timeout]
            for connection in idle:
                connection.abort()
        if idle:
            self.metrics.counter(
                "server_idle_reaped_total",
                "connections closed by the idle reaper").inc(len(idle))
        return len(idle)

    def _reap_loop(self) -> None:
        poll = max(min(self.config.idle_timeout_seconds / 4, 1.0), 0.05)
        while not self._closed.wait(poll):
            self.reap_idle()

    # -- connection handling ----------------------------------------------

    def serve(self, sock: socket.socket) -> None:
        """Run one accepted connection to its end on the calling thread,
        then close the socket."""
        connection = _Connection(sock, self.clock.monotonic())
        with self._cond:
            self._connections.add(connection)
            if self._closed.is_set():  # accepted as the server closed
                connection.abort()
        self.metrics.counter("server_connections_total",
                             "connections accepted").inc()
        try:
            self._session_loop(connection)
        except (TornFrameError, OversizedFrameError,
                GarbledFrameError) as exc:
            self.metrics.counter(
                "server_frame_errors_total",
                "connections dropped on malformed framing").inc(
                    kind=type(exc).__name__)
            self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_BAD_FRAME,
                "error": str(exc)})
        except OSError:
            pass  # peer went away, or the connection was shut down
        finally:
            with self._cond:
                self._connections.discard(connection)
            sock.close()

    def _session_loop(self, connection: _Connection) -> None:
        """HELLO handshake, then ordered request dispatch until EOF."""
        max_bytes = self.config.max_frame_bytes
        hello = read_frame(connection.sock, max_bytes=max_bytes)
        if hello is None:
            return
        connection.last_activity = self.clock.monotonic()
        if hello.get("kind") != protocol.HELLO:
            self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_BAD_REQUEST,
                "error": "first frame must be HELLO"})
            return
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_BAD_REQUEST,
                "error": f"unsupported protocol revision "
                         f"{hello.get('protocol')!r}; this server speaks "
                         f"{protocol.PROTOCOL_VERSION}"})
            return
        try:
            tenant = self.tenants.authenticate(hello.get("tenant"),
                                               hello.get("token"))
        except S2SError as exc:
            self.metrics.counter("server_auth_failures_total",
                                 "rejected HELLO frames").inc()
            self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_AUTH,
                "error": str(exc)})
            return
        self._respond(connection, {
            "kind": protocol.WELCOME,
            "protocol": protocol.PROTOCOL_VERSION,
            "server": f"repro-s2s/{__version__}",
            "tenant": tenant.name})
        connection.tenant = tenant
        while True:
            frame = read_frame(connection.sock, max_bytes=max_bytes)
            if frame is None:
                return
            connection.last_activity = self.clock.monotonic()
            if frame.get("kind") == protocol.GOODBYE:
                self._try_send(connection, {"kind": protocol.GOODBYE})
                return
            self._dispatch(connection, frame)

    def _dispatch(self, connection: _Connection, frame: dict) -> None:
        """One request: admission, execution, response, accounting."""
        kind = frame.get("kind", "")
        handler = _HANDLERS.get(kind)
        tenant = connection.tenant.name
        started = time.perf_counter()
        if handler is None:
            self._try_send(connection, _error(
                frame, protocol.CODE_UNKNOWN_KIND,
                f"unknown frame kind {kind!r}"))
            self._observe(tenant, kind, "unknown", started)
            return
        if self._closed.is_set():
            self._try_send(connection, _error(
                frame, protocol.CODE_SHUTTING_DOWN, "server is draining"))
            self._observe(tenant, kind, "draining", started)
            return
        admitted = False
        try:
            refusal = self._admit(frame) if kind in _HEAVY_KINDS else None
            if refusal is not None:  # sent unlocked: a slow peer stalls no one
                self._try_send(connection, refusal)
                status = "rejected"
            else:
                admitted = kind in _HEAVY_KINDS
                handler(self, connection, frame)
                status = "ok"
        except FleetQuotaExceeded as exc:
            # A shared query fleet refused the fan-out at one of its
            # quotas: same pushback shape as the server's own admission
            # control, so clients reuse their RETRY_AFTER handling.
            self._rejected("fleet_quota")
            self._try_send(connection, {
                "kind": protocol.RETRY_AFTER, "id": frame.get("id"),
                "retry_after": (exc.retry_after
                                or self.config.retry_after_seconds),
                "scope": exc.scope,
            })
            status = "rejected"
        except QueryError as exc:
            self._try_send(connection, _error(frame, protocol.CODE_QUERY,
                                              str(exc)))
            status = "error"
        except S2SError as exc:
            self._try_send(connection, _error(
                frame, protocol.CODE_BAD_REQUEST, str(exc)))
            status = "error"
        except ConnectionError:
            raise
        except Exception as exc:  # never let one request kill the server
            logger.exception("unhandled error serving %s for tenant %s",
                             kind, tenant)
            self._try_send(connection, _error(
                frame, protocol.CODE_INTERNAL, f"internal error: {exc}"))
            status = "error"
        finally:
            if admitted:
                self._release()
        self._observe(tenant, kind, status, started)

    # -- admission control -------------------------------------------------

    def _admit(self, frame: dict) -> dict | None:
        """Take an execution slot, waiting for one when the queue has a
        seat; None once taken, else the refusal to send: RETRY_AFTER when
        the queue is full, DEADLINE_EXCEEDED when the request expired
        while queued, SHUTTING_DOWN when a drain began.  Raises
        :class:`S2SError` for a malformed ``timeout`` before taking
        anything."""
        timeout = frame.get("timeout", self.config.request_deadline_seconds)
        if timeout is not None and (
                isinstance(timeout, bool)
                or not isinstance(timeout, (int, float))
                or not 0 < timeout < math.inf):
            raise S2SError(f"timeout must be a positive, finite number of "
                           f"seconds, not {timeout!r}")
        queued_at = self.clock.monotonic()
        config = self.config
        with self._cond:
            if self._inflight >= config.max_inflight:
                if self._waiting >= config.max_queue:
                    self._rejected("queue_full")
                    return {"kind": protocol.RETRY_AFTER,
                            "id": frame.get("id"),
                            "retry_after": config.retry_after_seconds,
                            "queue_depth": self._waiting}
                self._waiting += 1
                self._set_gauges()
                try:
                    while (self._inflight >= config.max_inflight
                           and not self._closed.is_set()):
                        self._cond.wait()
                finally:
                    self._waiting -= 1
                    self._set_gauges()
                refusal = None
                if self._closed.is_set():
                    refusal = _error(frame, protocol.CODE_SHUTTING_DOWN,
                                     "server is draining")
                elif (timeout is not None
                      and self.clock.monotonic() - queued_at >= timeout):
                    self._rejected("deadline")
                    refusal = _error(frame, protocol.CODE_DEADLINE,
                                     f"request waited past its "
                                     f"{float(timeout):.3f}s deadline in "
                                     f"the admission queue")
                if refusal is not None:
                    self._cond.notify_all()  # the slot that woke it is free
                    return refusal
            self._inflight += 1
            self._set_gauges()
            return None

    def _rejected(self, reason: str) -> None:
        self.metrics.counter(
            "server_rejected_total",
            "requests refused by admission control").inc(reason=reason)

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._set_gauges()
            self._cond.notify_all()

    def _set_gauges(self) -> None:
        self.metrics.gauge("server_inflight",
                           "requests currently executing").set(
                               self._inflight)
        self.metrics.gauge("server_queue_depth",
                           "requests waiting for an execution slot").set(
                               self._waiting)

    def _observe(self, tenant: str, kind: str, status: str,
                 started: float) -> None:
        self.metrics.counter(
            "server_requests_total",
            "requests served, by tenant, frame kind and outcome").inc(
                tenant=tenant, kind=kind or "?", status=status)
        self.metrics.histogram(
            "server_request_seconds", "request latency, frame in to "
            "response out", buckets=_LATENCY_BUCKETS).observe(
                time.perf_counter() - started)

    # -- responses ---------------------------------------------------------

    def _respond(self, connection: _Connection, payload: dict) -> None:
        write_frame(connection.sock, payload,
                    max_bytes=self.config.max_frame_bytes)

    def _respond_result(self, connection: _Connection, frame: dict,
                        answer) -> None:
        connection.sock.sendall(encode_result_frame(
            frame.get("id"), answer, max_bytes=self.config.max_frame_bytes))

    def _try_send(self, connection: _Connection, payload: dict) -> None:
        """Best-effort write (the peer may already be gone)."""
        try:
            self._respond(connection, payload)
        except (OSError, ProtocolError):
            pass

    # -- request handlers --------------------------------------------------

    @staticmethod
    def _require(frame: dict, key: str, kind: type = str):
        value = frame.get(key)
        if not isinstance(value, kind):
            raise S2SError(f"{frame.get('kind')} frame needs a "
                           f"{kind.__name__} {key!r} field")
        return value

    @staticmethod
    def _merge_key(frame: dict) -> list[str] | None:
        merge_key = frame.get("merge_key")
        if merge_key is None:
            return None
        if (not isinstance(merge_key, list)
                or not all(isinstance(item, str) for item in merge_key)):
            raise S2SError("merge_key must be a list of attribute names")
        return merge_key

    def _handle_query(self, connection: _Connection, frame: dict) -> None:
        s2sql = self._require(frame, "s2sql")
        result = connection.tenant.middleware.query(
            s2sql, merge_key=self._merge_key(frame))
        self._respond_result(connection, frame, result)

    def _handle_query_many(self, connection: _Connection, frame: dict) -> None:
        queries = self._require(frame, "queries", list)
        if not all(isinstance(query, str) for query in queries):
            raise S2SError("queries must be a list of S2SQL strings")
        results = connection.tenant.middleware.query_many(
            queries, merge_key=self._merge_key(frame))
        self._respond_result(connection, frame, results)

    def _handle_parse(self, connection: _Connection, frame: dict) -> None:
        name = self._require(frame, "name")
        s2sql = self._require(frame, "s2sql")
        parsed = parse_s2sql(s2sql)
        plan = connection.tenant.middleware.query_handler.planner.plan(parsed)
        connection.statements[name] = parsed
        self._respond(connection, {
            "kind": protocol.PARSED, "id": frame.get("id"), "name": name,
            "query_class": plan.class_name,
            "attributes": len(plan.required_attributes)})

    def _handle_bind(self, connection: _Connection, frame: dict) -> None:
        name = self._require(frame, "name")
        parsed = connection.statements.get(name)
        if parsed is None:
            raise S2SError(f"no prepared statement named {name!r}; "
                           f"PARSE it first")
        portal = frame.get("portal", name)
        if not isinstance(portal, str):
            raise S2SError("portal must be a string")
        connection.portals[portal] = (parsed, self._merge_key(frame))
        self._respond(connection, {
            "kind": protocol.BOUND, "id": frame.get("id"),
            "portal": portal})

    def _handle_execute(self, connection: _Connection, frame: dict) -> None:
        portal = self._require(frame, "portal")
        bound = connection.portals.get(portal)
        if bound is None:
            raise S2SError(f"no bound portal named {portal!r}; BIND it "
                           f"first")
        parsed, merge_key = bound
        result = connection.tenant.middleware.query_handler.execute(
            parsed, merge_key=merge_key)
        self._respond_result(connection, frame, result)

    def _handle_sparql(self, connection: _Connection, frame: dict) -> None:
        text = self._require(frame, "sparql")
        answer = connection.tenant.middleware.sparql(text)
        self._respond(connection, {
            "kind": protocol.SPARQL_RESULT, "id": frame.get("id"),
            **sparql_to_wire(answer)})

    def _handle_explain(self, connection: _Connection, frame: dict) -> None:
        s2sql = self._require(frame, "s2sql")
        rendered = connection.tenant.middleware.explain(
            s2sql, merge_key=self._merge_key(frame))
        self._respond(connection, {
            "kind": protocol.EXPLAINED, "id": frame.get("id"),
            "rendered": rendered})

    def _handle_status(self, connection: _Connection, frame: dict) -> None:
        middleware = connection.tenant.middleware
        store_rows = (middleware.store_status()
                      if middleware.store is not None else None)
        concurrency = middleware.resilience.concurrency
        engine = {"mode": concurrency.mode}
        if concurrency.mode == "sharded":
            fleet_config = concurrency.fleet_config()
            engine["workers"] = fleet_config.n_workers
            engine["pool"] = fleet_config.pool
            fleet = getattr(middleware.manager, "fleet", None)
            if fleet is not None and hasattr(fleet, "snapshot"):
                engine["fleet"] = fleet.snapshot()
        self._respond(connection, {
            "kind": protocol.STATUS_OK, "id": frame.get("id"),
            "tenant": connection.tenant.name,
            "server": {
                "draining": self._closed.is_set(),
                "inflight": self._inflight,
                "queue_depth": self._waiting,
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "connections": len(self._connections),
                "tenants": len(self.tenants),
                "uptime_seconds": self.clock.monotonic() - self._started_at,
            },
            "middleware": {
                "sources": len(middleware.source_repository),
                "mappings": len(middleware.attribute_repository),
                "coverage": middleware.mapping_coverage(),
                "open_breakers": middleware.open_breakers(),
                "engine": engine,
                "store": store_rows,
            }})

    def _handle_metrics(self, connection: _Connection, frame: dict) -> None:
        from ..obs.export import metrics_to_dict
        middleware = connection.tenant.middleware
        self._respond(connection, {
            "kind": protocol.METRICS_OK, "id": frame.get("id"),
            "metrics": {
                "server": metrics_to_dict(self.metrics),
                "tenant": metrics_to_dict(middleware.metrics()),
            },
            "text": middleware.metrics().render_text()})


def _error(frame: dict, code: str, message: str) -> dict:
    """The ERROR frame answering ``frame``."""
    return {"kind": protocol.ERROR, "id": frame.get("id"),
            "code": code, "error": message}


_HANDLERS = {
    protocol.QUERY: S2SServer._handle_query,
    protocol.QUERY_MANY: S2SServer._handle_query_many,
    protocol.PARSE: S2SServer._handle_parse,
    protocol.BIND: S2SServer._handle_bind,
    protocol.EXECUTE: S2SServer._handle_execute,
    protocol.SPARQL: S2SServer._handle_sparql,
    protocol.EXPLAIN: S2SServer._handle_explain,
    protocol.STATUS: S2SServer._handle_status,
    protocol.METRICS: S2SServer._handle_metrics,
}


#: pause after a failed accept(): descriptors or buffers ran out (EMFILE…)
_ACCEPT_RETRY_DELAY = 1.0


class ServerThread:
    """Run an :class:`S2SServer`: its listener and all of its threads.

    The handle for blocking callers — tests, the CLI, benchmarks::

        with ServerThread(S2SServer({"default": s2s})) as (host, port):
            client = S2SClient(host, port)

    ``start()`` binds and starts the accept thread (and the idle reaper
    when ``idle_timeout_seconds`` is set); each accepted connection runs
    :meth:`S2SServer.serve` on a thread of its own.  ``stop()`` closes
    the listener, drains the server (:meth:`S2SServer.close`) and joins
    every thread it started.  A stopped server does not start again.
    """

    def __init__(self, server: S2SServer) -> None:
        self.server = server
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        #: set by :meth:`stop`, the accept loop's one reason to return
        self._stopping = threading.Event()

    def start(self) -> tuple[str, int]:
        """Bind, then start accepting; returns the bound (host, port)."""
        if self._listener is not None:
            raise S2SError("server thread already started")
        if self._stopping.is_set() or self.server.draining:
            raise S2SError("server already stopped; it does not restart")
        host, port = self.server.config.host, self.server.config.port
        if not host and socket.has_dualstack_ipv6():  # every interface
            self._listener = socket.create_server(
                ("", port), family=socket.AF_INET6, dualstack_ipv6=True)
        elif not host:
            self._listener = socket.create_server(("", port))
        else:  # the first address the host resolves to, IPv4 or IPv6
            family, *_, address = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM,
                flags=socket.AI_PASSIVE)[0]
            self._listener = socket.create_server(address, family=family)
        if self.server.config.idle_timeout_seconds is not None:
            self._spawn(self.server._reap_loop, "repro-s2s-reaper")
        self._acceptor = self._spawn(self._accept_loop, "repro-s2s-accept",
                                     self._listener)
        host, port = self._listener.getsockname()[:2]
        logger.info("S2S server listening on %s:%d (%d tenants)",
                    host, port, len(self.server.tenants))
        return host, port

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = listener.accept()
            except ConnectionAbortedError:
                continue  # the peer left before it was accepted
            except OSError as exc:
                if not self._stopping.is_set():  # else stop() woke it
                    logger.error("accept failed (%s); retrying in %.1fs",
                                 exc, _ACCEPT_RETRY_DELAY)
                    self._stopping.wait(_ACCEPT_RETRY_DELAY)
                continue
            try:
                # one write per frame: no reason to hold its tail for an ACK
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._threads = [thread for thread in self._threads
                                 if thread.is_alive()]
                self._spawn(self.server.serve, "repro-s2s-connection", sock)
            except (OSError, RuntimeError) as exc:  # RuntimeError: no thread
                logger.error("dropped an accepted connection: %s", exc)
                sock.close()

    def _spawn(self, target, name: str, *args) -> threading.Thread:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)
        return thread

    def reap_idle(self) -> int:
        """:meth:`S2SServer.reap_idle` now, not at the reaper's poll."""
        return self.server.reap_idle()

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Close the listener, drain the server and join every thread,
        waiting at most ``timeout`` seconds for them."""
        listener, self._listener = self._listener, None
        if listener is None:
            return
        self._stopping.set()
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        except OSError:
            pass
        self._acceptor.join()
        listener.close()
        self.server.close(drain=drain)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
        self._threads = []

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
