"""Ledger-owned server launcher: the process under test.

Reads one workload spec (JSON, first line of stdin), builds the seeded
world through public APIs, starts an :class:`S2SServer` with the default
:class:`ServerConfig` and announces ``{"event": "ready", "port": ...}``
on stdout.  It then obeys one JSON command per stdin line, answering
each with one JSON line:

* ``writer_on`` / ``writer_off`` — the scheduled hub-operator writer
  (mutate the next source, ``refresh_store()``) on a fixed period;
  ``writer_off`` returns the samples it took;
* ``ingest`` — ``count`` back-to-back durable ingests of the whole
  world into fresh journal directories;
* ``stats`` — peak RSS and the server/store/fleet counters;
* ``stop`` (or stdin EOF, so an orphaned launcher never outlives its
  harness) — drain, close and exit.

Running the server in its own process keeps client and server off one
GIL; the writer deliberately shares the server's.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time

import _bootstrap  # noqa: F401  (puts this checkout's src/ on sys.path)
from repro.core.ingest import IngestJournal
from repro.obs import MetricsRegistry
from repro.server import S2SServer, ServerThread

from worlds import World, build_world, peak_rss_mb


class ScheduledWriter:
    """Open-loop writer: tick ``k`` (from 1) is due at ``start +
    (k - 1/2) * period`` whatever the previous tick cost, so two commits
    see the same write load; how late each tick started is reported as
    its lag.  The half-period phase keeps ticks off the edges of a slice
    that lasts a whole number of periods, so every such slice sees the
    same number of refreshes."""

    def __init__(self, world: World, period: float) -> None:
        self.world = world
        self.period = period
        self.samples: list[dict] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="ledger-writer")
        self._thread.start()

    def stop(self) -> list[dict]:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        samples, self.samples = self.samples, []
        return samples

    def _run(self) -> None:
        middleware = self.world.tenants["hub"]
        started = time.perf_counter()
        tick = 0
        while True:
            tick += 1
            due = started + (tick - 0.5) * self.period
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            began = time.perf_counter()
            self.world.mutate_next_source()
            results = middleware.refresh_store()
            ended = time.perf_counter()
            self.samples.append({
                "lag_ms": (began - due) * 1e3,
                "total_ms": (ended - began) * 1e3,
                "refresh_ms": sum(r.elapsed_seconds for r in results) * 1e3,
                "reextracted": [len(r.extracted_sources) for r in results],
            })


def run_ingests(world: World, count: int, scratch_dir: str) -> list[dict]:
    middleware = world.tenants["hub"]
    samples = []
    for _ in range(count):
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=scratch_dir)
        try:
            began = time.perf_counter()
            report = middleware.ingest(world.spec["ingest_queries"],
                                       journal_dir=journal_dir, force=True)
            elapsed = time.perf_counter() - began
            journal = IngestJournal(journal_dir)
            samples.append({
                "total_ms": elapsed * 1e3,
                "run_ms": report.elapsed_seconds * 1e3,
                "jobs": report.completed,
                "dead": report.dead,
                "journal_records": len(journal.records()),
                "journal_bytes": os.path.getsize(journal.path),
            })
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return samples


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return metric.total() if metric is not None else 0.0


def stats(world: World, server_metrics: MetricsRegistry) -> dict:
    out = {
        "rss_mb": peak_rss_mb(),
        "rejected": _counter_total(server_metrics, "server_rejected_total"),
    }
    store = world.tenants[world.spec["tenants"][0]].store
    if store is not None:
        out["graph_triples"] = len(store.graph)
    if world.fleet is not None:
        out["fleet"] = world.fleet.snapshot()
        out["fleet_dispatches"] = _counter_total(world.fleet_metrics,
                                                 "shard_dispatches_total")
        out["fleet_worker_restarts"] = _counter_total(
            world.fleet_metrics, "worker_restarts_total")
    return out


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    timings = {}
    began = time.perf_counter()
    world = build_world(spec)
    timings["build_s"] = time.perf_counter() - began
    began = time.perf_counter()
    for query in spec.get("ingest_queries", []):
        world.tenants["hub"].materialize(query)
    timings["materialize_s"] = time.perf_counter() - began
    began = time.perf_counter()
    server_metrics = MetricsRegistry()
    thread = ServerThread(S2SServer(world.tenants, metrics=server_metrics))
    host, port = thread.start()
    timings["start_s"] = time.perf_counter() - began
    writer = (ScheduledWriter(world, spec["writer_period_seconds"])
              if "writer_period_seconds" in spec else None)
    try:
        emit({"event": "ready", "host": host, "port": port,
              "timings": timings})
        for line in sys.stdin:
            command = json.loads(line)
            kind = command["cmd"]
            if kind == "writer_on":
                writer.start()
                emit({"event": "writer_on"})
            elif kind == "writer_off":
                emit({"event": "writer_off", "samples": writer.stop()})
            elif kind == "ingest":
                emit({"event": "ingest", "samples": run_ingests(
                    world, command["count"], spec["scratch_dir"])})
            elif kind == "stats":
                emit({"event": "stats", **stats(world, server_metrics)})
            elif kind == "stop":
                break
            else:
                emit({"event": "error", "error": f"unknown command {kind!r}"})
    finally:
        if writer is not None:
            writer.stop()
        thread.stop()
        world.close()
    emit({"event": "stopped", "timings": timings,
          **stats(world, server_metrics)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
