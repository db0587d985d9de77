"""Sharded multi-worker execution: the shared fleet substrate.

The ROADMAP's "sharded, multi-process *query* execution" item, and the
home of everything fleet-shaped the ingest pipeline and the query path
now share:

* :mod:`~repro.core.cluster.sharding` — stable shard routing
  (``shard_of``) and source partitioning;
* :mod:`~repro.core.cluster.pool` — generic supervised worker pools
  (daemon threads and spawn subprocesses behind one protocol),
  parameterized by a domain loop function;
* :mod:`~repro.core.cluster.supervision` — heartbeat death detection
  and jittered restart backoff (:class:`WorkerSupervisor`), extracted
  from the ingest coordinator;
* :mod:`~repro.core.cluster.coordinator` — the
  :class:`QueryShardCoordinator`: interleaved multi-query sub-plan
  scheduling (fair-share ready queue, per-tenant quotas, death
  re-dispatch) over one shared fleet;
* :mod:`~repro.core.cluster.manager` — the
  :class:`ShardedExtractorManager` engine selected by
  ``ConcurrencyConfig(mode="sharded")``.

See ``docs/cluster.md`` for shard routing, merge semantics and the
failure model.
"""

from ..resilience.config import FleetConfig
from .coordinator import (FleetWorkerContext, QueryShardCoordinator,
                          QueryWorkerContext, QueryWorkItem, ShardRunResult,
                          query_worker_loop, run_query_item)
from .manager import ShardedExtractorManager, merge_partials
from .pool import (KILL_EXIT_CODE, SubprocessWorkerPool, ThreadWorkerPool,
                   WorkerPool)
from .sharding import partition_sources, shard_of
from .supervision import (SupervisionVerdict, WorkerSupervisor,
                          default_restart_policy)

__all__ = [
    "KILL_EXIT_CODE", "FleetConfig", "FleetWorkerContext",
    "QueryShardCoordinator", "QueryWorkItem", "QueryWorkerContext",
    "ShardRunResult", "ShardedExtractorManager", "SubprocessWorkerPool",
    "SupervisionVerdict", "ThreadWorkerPool", "WorkerPool",
    "WorkerSupervisor", "default_restart_policy", "merge_partials",
    "partition_sources", "query_worker_loop", "run_query_item",
    "shard_of",
]
