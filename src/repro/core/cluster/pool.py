"""Generic supervised worker pools: thread and spawn-subprocess.

Generalized from the ingest pipeline's worker pools so the sharded
query engine and the ingest coordinator share one fleet substrate.  A
pool owns ``n_workers`` shard workers; each worker runs a caller-
supplied *loop function* over a private inbox and reports plain-dict
events (``beat`` / ``done`` / ``stage`` / ``failed``) on a shared
results queue, which the coordinator blocks on through
:func:`wait_for_events`.  The loop function — not the pool — defines
what a work item means, which is how the same two pool flavours run
both the ingest stage waterfall and per-shard query extraction.

The loop contract::

    def loop(shard, inbox, results, ctx, *, cancel=None,
             in_subprocess=False) -> None:
        # drain inbox until the None sentinel; emit dicts carrying at
        # least {"kind": ..., "shard": shard} on results.put

Both domains use the one :func:`worker_loop` below, bound to their item
runner with ``functools.partial`` (which pickles by reference, so it
crosses the spawn boundary like a plain function).

Thread pools share the live context object (and therefore the
coordinator's clock, breakers and fault-injection state); subprocess
pools use the ``spawn`` start method deliberately — children re-import
the loop function by reference and re-pickle the context, enforcing
the pickling contract a distributed deployment would need.  A worker
that raises :class:`~repro.sources.flaky.WorkerCrashed` (or calls
``os._exit``) dies silently; supervision must notice on its own.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import threading
from typing import Any, Callable, Iterable, Protocol

from ...clock import Clock
from ...sources.flaky import WorkerCrashed

#: Exit code a subprocess worker dies with on a scripted kill.
KILL_EXIT_CODE = 17

#: Longest a coordinator with work in flight stays blocked on the result
#: queue: a dead or hung worker neither posts an event nor is a timer,
#: so ``pool.alive`` and heartbeat age are probed on this beat.
LIVENESS_PROBE_SECONDS = 0.05

#: The worker main-loop callable a pool runs on each shard.
WorkerLoop = Callable[..., None]


def worker_loop(run_item: Callable[..., None], shard: int, inbox, results,
                ctx: Any, *, cancel: Any = None,
                in_subprocess: bool = False) -> None:
    """The worker main loop: drain the inbox until the None sentinel,
    handing each item to ``run_item(shard, item, ctx, emit, *, cancel,
    in_subprocess)``.

    Shared verbatim by ingest and query workers, thread and subprocess
    alike; only the item runner, the queue implementations and the kill
    mechanism differ."""
    while True:
        item = inbox.get()
        if item is None:
            return
        try:
            run_item(shard, item, ctx, results.put, cancel=cancel,
                     in_subprocess=in_subprocess)
        except WorkerCrashed:
            # Simulated sudden death: exit the loop without reporting
            # anything — no failure event, no further heartbeats.  The
            # supervisor must notice on its own.
            return


class WorkerPool(Protocol):
    """What a coordinator requires of a pool of shard workers."""

    n_workers: int

    def start(self) -> None: ...
    def submit(self, shard: int, item: Any) -> None: ...
    def events(self, timeout: float | None) -> list[dict]: ...
    def wake(self) -> None: ...
    def alive(self, shard: int) -> bool: ...
    def restart(self, shard: int) -> None: ...
    def shutdown(self) -> None: ...


def wait_for_events(pool: WorkerPool, clock: Clock,
                    timers: Iterable[float] | None) -> list[dict]:
    """Block on the pool's result queue until an event arrives or
    ``clock`` reaches the next timer — the one wait both coordinators
    schedule with.

    ``timers`` — seconds from now to whatever the caller must act on
    unprompted (request deadlines, restart backoffs, retry not-befores;
    ``inf`` for "none"); the liveness probe is always among them.
    ``None`` — nothing is in flight: no timer, no probe, block until
    something is posted (:meth:`WorkerPool.wake`)."""
    timeout = (None if timers is None
               else max(min([LIVENESS_PROBE_SECONDS, *timers]), 0.0))
    return clock.wait(pool.events, timeout)


class _ResultQueue:
    """What a coordinator reads: both pool flavours' ``results`` queue."""

    results: Any

    def events(self, timeout: float | None) -> list[dict]:
        """Every queued event, waiting up to ``timeout`` (``None``:
        indefinitely) for the first."""
        collected: list[dict] = []
        try:
            collected.append(self.results.get(timeout=timeout))
        except queue_module.Empty:
            return collected
        while True:
            try:
                collected.append(self.results.get_nowait())
            except queue_module.Empty:
                return collected

    def wake(self) -> None:
        """Post a no-op event so a coordinator blocked in
        :func:`wait_for_events` re-reads its state."""
        self.results.put({"kind": "wake"})


class _ThreadWorker:
    __slots__ = ("thread", "inbox", "cancel")

    def __init__(self, thread: threading.Thread,
                 inbox: "queue_module.Queue", cancel: threading.Event
                 ) -> None:
        self.thread = thread
        self.inbox = inbox
        self.cancel = cancel


class ThreadWorkerPool(_ResultQueue):
    """Shard workers as daemon threads sharing the process state.

    The cheap default: no pickling, shared fault-injection state (a
    scripted kill consumed by one worker is gone for all), and the
    coordinator's FakeClock is genuinely shared with the workers."""

    def __init__(self, ctx: Any, n_workers: int = 2, *,
                 loop: WorkerLoop, name: str = "worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.ctx = ctx
        self.n_workers = n_workers
        self.name = name
        self._loop = loop
        self.results: "queue_module.Queue[dict]" = queue_module.Queue()
        self._workers: dict[int, _ThreadWorker] = {}

    def _spawn(self, shard: int) -> _ThreadWorker:
        inbox: "queue_module.Queue" = queue_module.Queue()
        cancel = threading.Event()
        thread = threading.Thread(
            target=self._loop, args=(shard, inbox, self.results, self.ctx),
            kwargs={"cancel": cancel}, daemon=True,
            name=f"{self.name}-{shard}")
        thread.start()
        return _ThreadWorker(thread, inbox, cancel)

    def start(self) -> None:
        for shard in range(self.n_workers):
            self._workers[shard] = self._spawn(shard)

    def submit(self, shard: int, item: Any) -> None:
        self._workers[shard].inbox.put(item)

    def alive(self, shard: int) -> bool:
        worker = self._workers.get(shard)
        return worker is not None and worker.thread.is_alive()

    def restart(self, shard: int) -> None:
        old = self._workers.get(shard)
        if old is not None:
            old.cancel.set()  # release a hung worker, if that's the cause
        self._workers[shard] = self._spawn(shard)

    def shutdown(self) -> None:
        for worker in self._workers.values():
            worker.cancel.set()
            worker.inbox.put(None)
        for worker in self._workers.values():
            worker.thread.join(timeout=1.0)
        self._workers.clear()


def _subprocess_main(loop: WorkerLoop, shard: int, inbox, results, cancel,
                     context_bytes: bytes) -> None:
    """Top-level subprocess entry point (spawn requires importability).

    ``loop`` crosses the boundary by reference (a module-level function
    pickles as its dotted path), the context by value."""
    ctx = pickle.loads(context_bytes)
    loop(shard, inbox, results, ctx, cancel=cancel, in_subprocess=True)


class SubprocessWorkerPool(_ResultQueue):
    """Shard workers as spawned subprocesses (real process isolation).

    Everything crossing the boundary is pickled: the worker context at
    spawn, work items on dispatch, payloads on the way back — which is
    exactly the contract a distributed deployment would need.  A
    scripted kill here is a genuine ``os._exit``."""

    def __init__(self, ctx: Any, n_workers: int = 2, *,
                 loop: WorkerLoop, name: str = "worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        import multiprocessing
        self._mp = multiprocessing.get_context("spawn")
        self.ctx = ctx
        self.name = name
        self._loop = loop
        self._context_bytes = pickle.dumps(ctx)
        self.n_workers = n_workers
        self.results = self._mp.Queue()
        self._workers: dict[int, Any] = {}
        self._inboxes: dict[int, Any] = {}
        self._cancels: dict[int, Any] = {}

    def _spawn(self, shard: int) -> None:
        inbox = self._mp.Queue()
        cancel = self._mp.Event()
        process = self._mp.Process(
            target=_subprocess_main,
            args=(self._loop, shard, inbox, self.results, cancel,
                  self._context_bytes),
            daemon=True, name=f"{self.name}-{shard}")
        process.start()
        self._workers[shard] = process
        self._inboxes[shard] = inbox
        self._cancels[shard] = cancel

    def start(self) -> None:
        for shard in range(self.n_workers):
            self._spawn(shard)

    def submit(self, shard: int, item: Any) -> None:
        self._inboxes[shard].put(item)

    def alive(self, shard: int) -> bool:
        process = self._workers.get(shard)
        return process is not None and process.is_alive()

    def restart(self, shard: int) -> None:
        old = self._workers.get(shard)
        if old is not None and old.is_alive():
            self._cancels[shard].set()
            old.terminate()
            old.join(timeout=2.0)
        self._spawn(shard)

    def shutdown(self) -> None:
        for shard, process in list(self._workers.items()):
            self._cancels[shard].set()
            if process.is_alive():
                self._inboxes[shard].put(None)
        for process in self._workers.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
        self._workers.clear()
        self._inboxes.clear()
        self._cancels.clear()
