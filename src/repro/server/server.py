"""The asyncio S2S query server.

One :class:`S2SServer` fronts a set of tenants (each a complete
:class:`~repro.core.middleware.S2SMiddleware`) behind the frame protocol
of :mod:`repro.server.protocol`.  The design goals, in order:

* **Don't melt down.**  Admission control is a bounded slot pool
  (``max_inflight`` executing, ``max_queue`` waiting); a request that
  would exceed the queue is refused *immediately* with a RETRY_AFTER
  frame.  Overload degrades to fast, explicit pushback — never to an
  unbounded backlog.
* **One loop, many tenants.**  Requests execute through the middleware's
  ``aquery()``/``aquery_many()``, which run the extraction in a worker
  thread (``asyncio.to_thread``) under every engine, so the loop keeps
  accepting frames.
* **Deterministic time.**  Queue deadlines and idle-connection reaping
  read the injectable :class:`~repro.clock.Clock`, so backpressure and
  timeout behaviour are tested with a FakeClock and zero real sleeps
  (the ``reap_idle()`` seam mirrors ``StoreRefresher.tick()``).
* **Graceful drain.**  ``stop()`` closes the listener, lets in-flight
  requests finish (bounded by ``drain_timeout_seconds``), then closes
  connections and any server-owned tenant middlewares.

Frames on one connection are handled strictly in order (responses never
interleave); concurrency comes from connections, which is also what
makes per-connection prepared-statement state trivial.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time

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
    """One accepted socket: streams plus idle bookkeeping."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, clock: Clock) -> None:
        self.reader = reader
        self.writer = writer
        self.clock = clock
        self.last_activity = clock.monotonic()
        self.tenant: Tenant | None = None

    def touch(self) -> None:
        """Record frame activity for the idle reaper."""
        self.last_activity = self.clock.monotonic()

    def idle_seconds(self, now: float) -> float:
        return now - self.last_activity

    def abort(self) -> None:
        """Close the transport; the session's pending read sees EOF."""
        if not self.writer.is_closing():
            self.writer.close()


class _Session:
    """Per-connection protocol state: prepared statements + portals."""

    def __init__(self, tenant: Tenant) -> None:
        self.tenant = tenant
        #: statement name → parsed S2SQL AST (never re-parsed)
        self.statements: dict = {}
        #: portal name → (parsed AST, merge_key)
        self.portals: dict = {}


class S2SServer:
    """Serve S2S middleware tenants over the frame protocol.

    ``tenants`` is a :class:`TenantRegistry` or a plain
    ``{name: middleware}`` dict (open tenants).  ``clock`` drives queue
    deadlines and idle reaping; ``metrics`` receives the
    ``server_requests_total{tenant,kind,status}`` / ``server_inflight``
    / ``server_queue_depth`` / ``server_request_seconds`` families.
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
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._cond: asyncio.Condition | None = None
        self._reaper: asyncio.Task | None = None
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._waiting = 0
        self._draining = False
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise S2SError("server already started")
        self._cond = asyncio.Condition()
        self._set_gauges()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._started_at = self.clock.monotonic()
        if self.config.idle_timeout_seconds is not None:
            self._reaper = asyncio.ensure_future(self._reap_loop())
        logger.info("S2S server listening on %s:%d (%d tenants)",
                    self.address[0], self.address[1], len(self.tenants))
        return self.address

    async def serve_forever(self) -> None:
        """Block until the listener is closed."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, close, tear down.

        In-flight requests get up to ``drain_timeout_seconds`` to
        finish; requests arriving after ``stop()`` begins are refused
        with a SHUTTING_DOWN error.  Tenant middlewares the server
        *owns* (built by it, e.g. through the CLI) are closed; injected
        ones are left to their owners."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        if drain and self._cond is not None:
            try:
                async with self._cond:
                    await asyncio.wait_for(
                        self._cond.wait_for(
                            lambda: self._inflight == 0
                            and self._waiting == 0),
                        self.config.drain_timeout_seconds)
            except (asyncio.TimeoutError, TimeoutError):
                logger.warning(
                    "drain timed out with %d request(s) in flight",
                    self._inflight + self._waiting)
        for connection in list(self._connections):
            connection.abort()
        for tenant in self.tenants:
            if tenant.owned:
                tenant.middleware.close()

    @property
    def draining(self) -> bool:
        """True once :meth:`stop` has begun refusing new requests."""
        return self._draining

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

        The deterministic seam: the background reaper calls this on a
        real-time poll, tests call it directly after advancing a
        FakeClock.  Must run on the server's event loop (use
        :meth:`ServerThread.reap_idle` from other threads)."""
        timeout = self.config.idle_timeout_seconds
        if timeout is None:
            return 0
        now = self.clock.monotonic()
        reaped = 0
        for connection in list(self._connections):
            if connection.idle_seconds(now) >= timeout:
                connection.abort()
                reaped += 1
        if reaped:
            self.metrics.counter(
                "server_idle_reaped_total",
                "connections closed by the idle reaper").inc(reaped)
        return reaped

    async def _reap_loop(self) -> None:
        poll = max(min(self.config.idle_timeout_seconds / 4, 1.0), 0.05)
        while True:
            await asyncio.sleep(poll)
            self.reap_idle()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(reader, writer, self.clock)
        self._connections.add(connection)
        self.metrics.counter("server_connections_total",
                             "connections accepted").inc()
        try:
            await self._session_loop(connection)
        except (TornFrameError, OversizedFrameError,
                GarbledFrameError) as exc:
            self.metrics.counter(
                "server_frame_errors_total",
                "connections dropped on malformed framing").inc(
                    kind=type(exc).__name__)
            await self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_BAD_FRAME,
                "error": str(exc)})
        except ConnectionError:
            pass  # peer went away; nothing to answer
        finally:
            self._connections.discard(connection)
            connection.abort()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _session_loop(self, connection: _Connection) -> None:
        """HELLO handshake, then ordered request dispatch until EOF."""
        max_bytes = self.config.max_frame_bytes
        hello = await read_frame(connection.reader, max_bytes=max_bytes)
        if hello is None:
            return
        connection.touch()
        if hello.get("kind") != protocol.HELLO:
            await self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_BAD_REQUEST,
                "error": "first frame must be HELLO"})
            return
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            await self._try_send(connection, {
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
            await self._try_send(connection, {
                "kind": protocol.ERROR, "code": protocol.CODE_AUTH,
                "error": str(exc)})
            return
        connection.tenant = tenant
        from .. import __version__
        await write_frame(connection.writer, {
            "kind": protocol.WELCOME,
            "protocol": protocol.PROTOCOL_VERSION,
            "server": f"repro-s2s/{__version__}",
            "tenant": tenant.name}, max_bytes=max_bytes)

        session = _Session(tenant)
        while True:
            frame = await read_frame(connection.reader, max_bytes=max_bytes)
            if frame is None:
                return
            connection.touch()
            if frame.get("kind") == protocol.GOODBYE:
                await self._try_send(connection, {"kind": protocol.GOODBYE})
                return
            await self._dispatch(connection, session, frame)

    async def _dispatch(self, connection: _Connection, session: _Session,
                        frame: dict) -> None:
        """One request: admission, execution, response, accounting."""
        kind = frame.get("kind", "")
        handler = _HANDLERS.get(kind)
        tenant = session.tenant.name
        started = time.perf_counter()
        if handler is None:
            await self._respond_error(connection, frame,
                                      protocol.CODE_UNKNOWN_KIND,
                                      f"unknown frame kind {kind!r}")
            self._observe(tenant, kind, "unknown", started)
            return
        if self._draining:
            await self._respond_error(connection, frame,
                                      protocol.CODE_SHUTTING_DOWN,
                                      "server is draining")
            self._observe(tenant, kind, "draining", started)
            return
        admitted = True
        if kind in _HEAVY_KINDS:
            admitted = await self._admit(connection, frame)
        if not admitted:
            self._observe(tenant, kind, "rejected", started)
            return
        try:
            await handler(self, connection, session, frame)
            status = "ok"
        except FleetQuotaExceeded as exc:
            # A shared query fleet refused the fan-out at one of its
            # quotas: same pushback shape as the server's own admission
            # control, so clients reuse their RETRY_AFTER handling.
            if self.metrics is not None:
                self.metrics.counter(
                    "server_rejected_total",
                    "requests refused by admission control").inc(
                        reason="fleet_quota")
            await self._try_send(connection, {
                "kind": protocol.RETRY_AFTER, "id": frame.get("id"),
                "retry_after": (exc.retry_after
                                or self.config.retry_after_seconds),
                "scope": exc.scope,
            })
            status = "rejected"
        except QueryError as exc:
            await self._respond_error(connection, frame,
                                      protocol.CODE_QUERY, str(exc))
            status = "error"
        except S2SError as exc:
            await self._respond_error(connection, frame,
                                      protocol.CODE_BAD_REQUEST, str(exc))
            status = "error"
        except ConnectionError:
            raise
        except Exception as exc:  # never let one request kill the server
            logger.exception("unhandled error serving %s for tenant %s",
                             kind, tenant)
            await self._respond_error(connection, frame,
                                      protocol.CODE_INTERNAL,
                                      f"internal error: {exc}")
            status = "error"
        finally:
            if kind in _HEAVY_KINDS:
                await self._release()
        self._observe(tenant, kind, status, started)

    # -- admission control -------------------------------------------------

    async def _admit(self, connection: _Connection, frame: dict) -> bool:
        """Take an execution slot, queue boundedly, or push back.

        Returns False after answering the frame itself (RETRY_AFTER when
        the queue is full, DEADLINE_EXCEEDED when the request expired
        while queued)."""
        config = self.config
        deadline: float | None = None
        timeout = frame.get("timeout", config.request_deadline_seconds)
        if timeout is not None:
            deadline = self.clock.monotonic() + float(timeout)
        async with self._cond:
            if self._inflight < config.max_inflight:
                self._inflight += 1
                self._set_gauges()
                return True
            if self._waiting >= config.max_queue:
                self.metrics.counter(
                    "server_rejected_total",
                    "requests refused by admission control").inc(
                        reason="queue_full")
                await self._try_send(connection, {
                    "kind": protocol.RETRY_AFTER, "id": frame.get("id"),
                    "retry_after": config.retry_after_seconds,
                    "queue_depth": self._waiting})
                return False
            self._waiting += 1
            self._set_gauges()
            try:
                while (self._inflight >= config.max_inflight
                       and not self._draining):
                    await self._cond.wait()
            finally:
                self._waiting -= 1
                self._set_gauges()
            if self._draining:
                await self._respond_error(connection, frame,
                                          protocol.CODE_SHUTTING_DOWN,
                                          "server is draining")
                self._cond.notify_all()
                return False
            if deadline is not None and self.clock.monotonic() >= deadline:
                self.metrics.counter(
                    "server_rejected_total",
                    "requests refused by admission control").inc(
                        reason="deadline")
                await self._respond_error(
                    connection, frame, protocol.CODE_DEADLINE,
                    f"request waited past its {float(timeout):.3f}s "
                    f"deadline in the admission queue")
                self._cond.notify_all()
                return False
            self._inflight += 1
            self._set_gauges()
            return True

    async def _release(self) -> None:
        async with self._cond:
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

    async def _respond(self, connection: _Connection, payload: dict) -> None:
        await write_frame(connection.writer, payload,
                          max_bytes=self.config.max_frame_bytes)

    async def _respond_result(self, connection: _Connection, frame: dict, answer) -> None:
        connection.writer.write(encode_result_frame(
            frame.get("id"), answer, max_bytes=self.config.max_frame_bytes))
        await connection.writer.drain()

    async def _respond_error(self, connection: _Connection, frame: dict,
                             code: str, message: str) -> None:
        await self._try_send(connection, {
            "kind": protocol.ERROR, "id": frame.get("id"),
            "code": code, "error": message})

    async def _try_send(self, connection: _Connection,
                        payload: dict) -> None:
        """Best-effort write (the peer may already be gone)."""
        try:
            await write_frame(connection.writer, payload,
                              max_bytes=self.config.max_frame_bytes)
        except (ConnectionError, OSError, ProtocolError):
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

    async def _handle_query(self, connection: _Connection,
                            session: _Session, frame: dict) -> None:
        s2sql = self._require(frame, "s2sql")
        result = await session.tenant.middleware.aquery(
            s2sql, merge_key=self._merge_key(frame))
        await self._respond_result(connection, frame, result)

    async def _handle_query_many(self, connection: _Connection,
                                 session: _Session, frame: dict) -> None:
        queries = self._require(frame, "queries", list)
        if not all(isinstance(query, str) for query in queries):
            raise S2SError("queries must be a list of S2SQL strings")
        results = await session.tenant.middleware.aquery_many(
            queries, merge_key=self._merge_key(frame))
        await self._respond_result(connection, frame, results)

    async def _handle_parse(self, connection: _Connection,
                            session: _Session, frame: dict) -> None:
        name = self._require(frame, "name")
        s2sql = self._require(frame, "s2sql")
        parsed = parse_s2sql(s2sql)
        plan = session.tenant.middleware.query_handler.planner.plan(parsed)
        session.statements[name] = parsed
        await self._respond(connection, {
            "kind": protocol.PARSED, "id": frame.get("id"), "name": name,
            "query_class": plan.class_name,
            "attributes": len(plan.required_attributes)})

    async def _handle_bind(self, connection: _Connection,
                           session: _Session, frame: dict) -> None:
        name = self._require(frame, "name")
        parsed = session.statements.get(name)
        if parsed is None:
            raise S2SError(f"no prepared statement named {name!r}; "
                           f"PARSE it first")
        portal = frame.get("portal", name)
        if not isinstance(portal, str):
            raise S2SError("portal must be a string")
        session.portals[portal] = (parsed, self._merge_key(frame))
        await self._respond(connection, {
            "kind": protocol.BOUND, "id": frame.get("id"),
            "portal": portal})

    async def _handle_execute(self, connection: _Connection,
                              session: _Session, frame: dict) -> None:
        portal = self._require(frame, "portal")
        bound = session.portals.get(portal)
        if bound is None:
            raise S2SError(f"no bound portal named {portal!r}; BIND it "
                           f"first")
        parsed, merge_key = bound
        result = await session.tenant.middleware.query_handler.aexecute(
            parsed, merge_key=merge_key)
        await self._respond_result(connection, frame, result)

    async def _handle_sparql(self, connection: _Connection,
                             session: _Session, frame: dict) -> None:
        text = self._require(frame, "sparql")
        answer = await asyncio.to_thread(session.tenant.middleware.sparql,
                                         text)
        await self._respond(connection, {
            "kind": protocol.SPARQL_RESULT, "id": frame.get("id"),
            **sparql_to_wire(answer)})

    async def _handle_explain(self, connection: _Connection,
                              session: _Session, frame: dict) -> None:
        s2sql = self._require(frame, "s2sql")
        rendered = await asyncio.to_thread(
            session.tenant.middleware.explain, s2sql,
            merge_key=self._merge_key(frame))
        await self._respond(connection, {
            "kind": protocol.EXPLAINED, "id": frame.get("id"),
            "rendered": rendered})

    async def _handle_status(self, connection: _Connection,
                             session: _Session, frame: dict) -> None:
        middleware = session.tenant.middleware
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
        await self._respond(connection, {
            "kind": protocol.STATUS_OK, "id": frame.get("id"),
            "tenant": session.tenant.name,
            "server": {
                "draining": self._draining,
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

    async def _handle_metrics(self, connection: _Connection,
                              session: _Session, frame: dict) -> None:
        from ..obs.export import metrics_to_dict
        middleware = session.tenant.middleware
        await self._respond(connection, {
            "kind": protocol.METRICS_OK, "id": frame.get("id"),
            "metrics": {
                "server": metrics_to_dict(self.metrics),
                "tenant": metrics_to_dict(middleware.metrics()),
            },
            "text": middleware.metrics().render_text()})


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


class ServerThread:
    """Run an :class:`S2SServer` on a dedicated event-loop thread.

    The bridge for blocking callers — tests, the CLI, benchmarks — who
    want a live server without owning an event loop::

        with ServerThread(S2SServer({"default": s2s})) as (host, port):
            client = S2SClient(host, port)
            ...

    ``start()`` returns the bound address; ``stop()`` drains and joins.
    """

    def __init__(self, server: S2SServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the server; returns (host, port)."""
        if self._loop is not None:
            raise S2SError("server thread already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-s2s-server", daemon=True)
        self._thread.start()
        return self.call(self.server.start())

    def call(self, coroutine, *, timeout: float = 30.0):
        """Run a coroutine on the server loop, blocking for its result."""
        if self._loop is None:
            raise S2SError("server thread not started")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout)

    def reap_idle(self) -> int:
        """Run :meth:`S2SServer.reap_idle` on the server loop."""
        async def _reap() -> int:
            return self.server.reap_idle()
        return self.call(_reap())

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain the server, stop the loop and join the thread."""
        if self._loop is None:
            return
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), loop)
        try:
            future.result(timeout=timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)
            if not loop.is_running():
                loop.close()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
