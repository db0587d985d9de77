"""The consolidated configuration surface.

Every knob object the middleware family accepts, importable from one
place::

    from repro.config import (ConcurrencyConfig, RefreshPolicy,
                              ResilienceConfig, ServerConfig)

* :class:`ResilienceConfig` — retries, breakers, deadlines, failover
  and the injectable clock (``S2SMiddleware(resilience=...)``).
* :class:`ConcurrencyConfig` — the extraction fan-out engine
  (``serial`` | ``thread`` | ``sharded``) and its worker
  bound; carried on :class:`ResilienceConfig`, or passed as
  ``S2SMiddleware(concurrency=...)``.
* :class:`FleetConfig` — every knob of a sharded query fleet (worker
  count, pool kind, supervision timings, admission quotas) in one
  frozen object: ``ConcurrencyConfig.sharded(fleet=...)`` and
  ``QueryShardCoordinator(fleet=...)``.
* :class:`RefreshPolicy` — semantic-store freshness: the TTL
  (``S2SMiddleware(store=...)``).
* :class:`ServerConfig` — the query server's listen address, admission
  control bounds, deadlines and frame ceiling
  (``S2SServer(config=...)``).

These classes still *live* next to the subsystems they configure (that
is where their behaviour is documented and tested); this module is the
one import path.
"""

from __future__ import annotations

from .core.resilience.config import (DEFAULT_WORKER_CAP, ConcurrencyConfig,
                                     FleetConfig, ResilienceConfig)
from .core.store.refresh import RefreshPolicy
from .server.config import ServerConfig

__all__ = [
    "DEFAULT_WORKER_CAP",
    "ConcurrencyConfig",
    "FleetConfig",
    "RefreshPolicy",
    "ResilienceConfig",
    "ServerConfig",
]
