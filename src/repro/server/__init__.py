"""The network front door: serve S2S over the wire.

The middleware of :mod:`repro.core` answers queries in-process; this
package turns it into a multi-tenant query *service*:

* :mod:`repro.server.protocol` — the length-prefixed JSON frame
  protocol (HELLO/WELCOME auth, PARSE/BIND/EXECUTE prepared S2SQL
  statements, one-shot QUERY/QUERY_MANY, SPARQL, EXPLAIN, STATUS,
  METRICS, RETRY_AFTER backpressure);
* :mod:`repro.server.server` — :class:`S2SServer`, the socket server
  fronting one :class:`~repro.core.middleware.S2SMiddleware` per tenant
  through plain ``query()``/``query_many()`` calls, with bounded
  admission control, per-request deadlines, idle-connection reaping and
  graceful drain, and :class:`ServerThread`, which owns its listener,
  its accept thread and one thread per connection;
* :mod:`repro.server.client` — :class:`S2SClient`, the blocking
  client, whose surface mirrors
  ``S2SMiddleware.query/query_many/sparql/explain`` so swapping
  in-process for over-the-wire is one constructor change;
* :mod:`repro.server.config` — :class:`ServerConfig`, re-exported
  through :mod:`repro.config`.

See docs/server.md for the frame reference and the tenancy model.
"""

from importlib import import_module

#: Public name → defining submodule.  Resolved lazily (PEP 562) so
#: ``repro.config`` can re-export :class:`ServerConfig` without pulling
#: the server/client machinery into every ``import repro``.
_EXPORTS = {
    "PreparedStatement": ".client",
    "S2SClient": ".client",
    "RemoteQueryResult": ".codec",
    "ServerConfig": ".config",
    "MAX_FRAME_BYTES": ".protocol",
    "PROTOCOL_VERSION": ".protocol",
    "GarbledFrameError": ".protocol",
    "OversizedFrameError": ".protocol",
    "ProtocolError": ".protocol",
    "RemoteServerError": ".protocol",
    "ServerBusyError": ".protocol",
    "TornFrameError": ".protocol",
    "TransportError": ".protocol",
    "S2SServer": ".server",
    "ServerThread": ".server",
    "Tenant": ".tenants",
    "TenantRegistry": ".tenants",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # resolve once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
