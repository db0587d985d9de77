"""One knob object for the whole resilience layer.

The seed's ``ExtractorManager``/``S2SMiddleware`` grew a kwarg per
behaviour (``retries``, ``retry_delay``, ``parallel``, ``max_workers``);
:class:`ResilienceConfig` replaces them with a single frozen dataclass
the caller can build once and share.

Fan-out shape is its own sub-config: :class:`ConcurrencyConfig` names
the engine (``serial`` | ``thread`` | ``sharded``) and the thread pool
bound in one frozen value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...clock import Clock, SystemClock
from .breaker import BreakerPolicy
from .retry import RetryPolicy

#: Fan-out engines ConcurrencyConfig.mode accepts.
CONCURRENCY_MODES = ("serial", "thread", "sharded")

#: Worker pool kinds the sharded engine accepts.
SHARDED_POOL_KINDS = ("thread", "spawn")

#: Default thread-pool cap when ``max_workers`` is left adaptive: the
#: pool is bounded by ``min(n_sources, DEFAULT_WORKER_CAP)``.
DEFAULT_WORKER_CAP = 16


@dataclass(frozen=True)
class FleetConfig:
    """Every knob of one sharded query fleet, in one frozen value.

    The fleet's shape, its supervision timings and the interleaving
    scheduler's admission quotas:

    * ``n_workers`` / ``pool`` — fleet width and worker flavour
      (``"thread"`` shares process state and the injectable clock,
      ``"spawn"`` pickles the world across a real process boundary);
    * ``heartbeat_timeout`` — seconds of silence *while holding work*
      before a worker is declared dead;
    * ``max_worker_restarts`` — per-query restart budget per worker;
      a worker that exceeds it is abandoned and its in-flight item
      degrades into reported problems;
    * ``max_inflight_requests`` — fleet-wide admission cap on
      concurrently interleaved queries; ``None`` is unbounded.  An
      admission past the cap raises
      :class:`~repro.errors.FleetQuotaExceeded`, which the server
      answers with RETRY_AFTER pushback;
    * ``tenant_quota`` — per-tenant cap on in-flight *shard items*
      (running + queued).  A tenant at its quota is skipped by the
      fair-share dispatcher (its backlog waits; other tenants keep
      streaming) and further admissions for it are refused, so a
      greedy tenant can never starve the rest of a shared fleet.
      ``None`` disables the quota.

    There is no scheduling interval: the dispatcher blocks on the
    result queue until a worker reports or the next timer comes due
    (:func:`~repro.core.cluster.pool.wait_for_events`).

    Accepted by ``ConcurrencyConfig.sharded(fleet=...)`` and
    ``QueryShardCoordinator(fleet=...)``; importable from
    ``repro.config``.
    """

    n_workers: int = 2
    pool: str = "thread"
    heartbeat_timeout: float = 30.0
    max_worker_restarts: int = 3
    max_inflight_requests: int | None = None
    tenant_quota: int | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.pool not in SHARDED_POOL_KINDS:
            raise ValueError(
                f"pool must be one of {SHARDED_POOL_KINDS}, "
                f"not {self.pool!r}")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if (self.max_inflight_requests is not None
                and self.max_inflight_requests < 1):
            raise ValueError(
                "max_inflight_requests must be >= 1 or None (unbounded)")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1 or None (disabled), "
                             f"got {self.tenant_quota}")


@dataclass(frozen=True)
class ConcurrencyConfig:
    """How the Extractor Manager fans extraction out across sources.

    ``mode`` selects the engine:

    * ``"serial"`` — one source after another (the seed's default);
    * ``"thread"`` — a thread pool, one worker per source up to the
      worker bound;
    * ``"sharded"`` — the fleet engine: sources are partitioned by
      stable shard key across the fleet's supervised workers and the
      partial outcomes are merged back into one (see docs/cluster.md).

    ``max_workers`` bounds the thread pool in ``"thread"`` mode:
    ``None`` means the adaptive default ``min(n_sources, 16)`` (which
    logs and counts a metric when it truncates the fan-out), ``0`` means
    explicitly unbounded (one worker per source, however many), and any
    positive value is an exact cap.

    ``fleet`` carries the :class:`FleetConfig` for the sharded engine
    — width, pool kind, supervision timings and admission quotas.  The
    other engines ignore it; ``None`` means the default fleet.
    """

    mode: str = "serial"
    max_workers: int | None = None
    fleet: FleetConfig | None = None

    def __post_init__(self) -> None:
        if self.mode not in CONCURRENCY_MODES:
            raise ValueError(
                f"concurrency mode must be one of {CONCURRENCY_MODES}, "
                f"not {self.mode!r}")
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError(
                "max_workers must be None (adaptive), 0 (unbounded) or "
                "positive")

    @classmethod
    def threads(cls, max_workers: int | None = None) -> "ConcurrencyConfig":
        """Thread-pool fan-out (the seed's ``parallel=True``)."""
        return cls(mode="thread", max_workers=max_workers)

    @classmethod
    def sharded(cls, workers: int | None = None, *,
                pool: str | None = None,
                fleet: FleetConfig | None = None) -> "ConcurrencyConfig":
        """Fleet fan-out: sources sharded across supervised workers.

        ``sharded(4, pool="spawn")`` is sugar for the common case;
        pass ``fleet=FleetConfig(...)`` for the full knob set
        (supervision timings, admission quotas)."""
        if fleet is None:
            fleet = FleetConfig(n_workers=2 if workers is None else workers,
                                pool=pool or "thread")
        elif workers is not None or pool is not None:
            raise ValueError(
                "pass either fleet=FleetConfig(...) or the workers/pool "
                "shorthand, not both")
        return cls(mode="sharded", fleet=fleet)

    def fleet_config(self) -> FleetConfig:
        """The sharded engine's fleet knobs (the default fleet when
        ``fleet`` is unset)."""
        return self.fleet or FleetConfig()

    @property
    def parallel(self) -> bool:
        """Whether sources are extracted concurrently."""
        return self.mode != "serial"

    def workers_for(self, n_sources: int) -> int:
        """The thread-pool size for a fan-out over ``n_sources``."""
        if self.max_workers == 0:
            return max(n_sources, 1)
        if self.max_workers:
            return self.max_workers
        return max(min(n_sources, DEFAULT_WORKER_CAP), 1)

    def caps_fanout(self, n_sources: int) -> bool:
        """True when the *adaptive default* cap truncates ``n_sources``.

        An explicit positive ``max_workers`` below the source count is a
        deliberate bound, not a surprise — only the implicit
        ``min(n, 16)`` default is reported when it bites."""
        return self.max_workers is None and n_sources > DEFAULT_WORKER_CAP


def coerce_concurrency(value: "ConcurrencyConfig | str | None",
                       ) -> ConcurrencyConfig | None:
    """A :class:`ConcurrencyConfig` from a config or mode string.

    Accepts ``"serial"``/``"thread"``/``"sharded"`` as shorthand (the
    middleware's ``concurrency=`` kwarg), passes configs through, and
    maps ``None`` to ``None`` (meaning "no override")."""
    if value is None or isinstance(value, ConcurrencyConfig):
        return value
    return ConcurrencyConfig(mode=value)


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the Extractor Manager needs to degrade gracefully.

    ``breaker=None`` disables circuit breaking, ``deadline_seconds=None``
    means unbounded, ``failover=False`` ignores replica mappings,
    ``concurrency`` picks the fan-out engine.  The ``clock`` is the
    single time source for backoff sleeps, breaker cooldowns, deadlines
    and (when shared with the fault-injection sources) latency/outage
    simulation.

    Frozen like every other config: ``dataclasses.replace(config,
    concurrency=...)`` is the way to change engines on an existing
    config.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    deadline_seconds: float | None = None
    concurrency: ConcurrencyConfig = field(default_factory=ConcurrencyConfig)
    failover: bool = True
    clock: Clock = field(default_factory=SystemClock)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0 or None")

    @classmethod
    def conservative(cls) -> "ResilienceConfig":
        """The seed's behaviour: serial, no retries, no breakers."""
        return cls(retry=RetryPolicy.from_legacy(0, 0.0), breaker=None,
                   failover=False)
