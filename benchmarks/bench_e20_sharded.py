"""E20 — sharded fleet: multi-worker query execution vs single process.

Two workloads over a 12-source world (sources shard evenly across 2
and 4 workers):

* **latency-bound** — every rule execution sleeps ~10 ms of injected
  wire latency (:func:`~repro.workloads.scaling.slow_source_world`).
  A thread fleet overlaps the shards, and each worker overlaps the
  sources of its shard, so the scan collapses toward one source's rules
  on any machine — this is the asserted acceptance floor (sharded
  4-worker thread fleet >= 5x over a single serial process; workers
  running their sources one at a time could reach 4x at best).
* **CPU-bound** — every rule execution burns sha256 rounds under the
  GIL (:func:`~repro.workloads.scaling.cpu_bound_world`).  Thread
  workers cannot help here; only the spawn fleet's real processes can.
  The >= 2x spawn floor is asserted when the machine has the cores to
  show it (skipped below 4 CPUs — a single-core runner physically
  cannot parallelize compute).

Every cell is checked to return the same record count, so the speedups
compare equal answers.  ``E20_ITERATIONS=1`` puts the benchmark in CI
smoke mode; the default takes the best of 3 runs per cell.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import ResultTable
from repro.config import ConcurrencyConfig
from repro.workloads.scaling import cpu_bound_world, slow_source_world

ITERATIONS = int(os.environ.get("E20_ITERATIONS", "3"))
N_SOURCES = 12
LATENCY_SECONDS = 0.01
WORK_FACTOR = int(os.environ.get("E20_WORK_FACTOR", "20000"))

LATENCY_ENGINES = {
    "serial": "serial",
    "sharded_thread_2": ConcurrencyConfig.sharded(2),
    "sharded_thread_4": ConcurrencyConfig.sharded(4),
}

CPU_ENGINES = {
    "serial": "serial",
    "sharded_spawn_2": ConcurrencyConfig.sharded(2, pool="spawn"),
    "sharded_spawn_4": ConcurrencyConfig.sharded(4, pool="spawn"),
}


def best_of(runs: int, operation) -> float:
    return min(_timed(operation) for _ in range(runs))


def _timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def _scan_timings(worlds: dict) -> tuple[dict, dict]:
    timings, records = {}, {}
    for name, s2s in worlds.items():
        records[name] = s2s.extract_all().total_records()  # warm fleet
        timings[name] = best_of(ITERATIONS, s2s.extract_all)
        s2s.close()
    return timings, records


def test_e20_latency_bound_report():
    worlds = {name: slow_source_world(engine, n_sources=N_SOURCES,
                                      latency_seconds=LATENCY_SECONDS)
              for name, engine in LATENCY_ENGINES.items()}
    timings, records = _scan_timings(worlds)
    table = ResultTable(
        f"E20a: sharded scan over {N_SOURCES} sources at "
        f"{LATENCY_SECONDS * 1000:.0f} ms/rule (best of {ITERATIONS})",
        ["engine", "scan_seconds", "speedup_vs_serial"])
    for name, seconds in timings.items():
        table.add_row(name, seconds, timings["serial"] / seconds)
    table.print()
    assert len(set(records.values())) == 1  # every engine, same answer


def test_e20_cpu_bound_report():
    worlds = {name: cpu_bound_world(engine, n_sources=N_SOURCES,
                                    work_factor=WORK_FACTOR)
              for name, engine in CPU_ENGINES.items()}
    timings, records = _scan_timings(worlds)
    table = ResultTable(
        f"E20b: sharded scan over {N_SOURCES} CPU-bound sources "
        f"({WORK_FACTOR} sha256 rounds/rule, best of {ITERATIONS}, "
        f"{os.cpu_count()} CPUs)",
        ["engine", "scan_seconds", "speedup_vs_serial"])
    for name, seconds in timings.items():
        table.add_row(name, seconds, timings["serial"] / seconds)
    table.print()
    assert len(set(records.values())) == 1


def test_e20_thread_fleet_speedup_floor():
    """Acceptance criterion: the 4-worker fleet finishes a slow-source
    scan at least 5x faster than a single serial process."""
    serial = slow_source_world("serial", n_sources=N_SOURCES,
                               latency_seconds=LATENCY_SECONDS)
    fleet = slow_source_world(ConcurrencyConfig.sharded(4),
                              n_sources=N_SOURCES,
                              latency_seconds=LATENCY_SECONDS)
    serial.extract_all()  # warm connections and the fleet
    fleet.extract_all()
    serial_seconds = best_of(ITERATIONS, serial.extract_all)
    fleet_seconds = best_of(ITERATIONS, fleet.extract_all)
    fleet.close()
    speedup = serial_seconds / fleet_seconds
    assert speedup >= 5.0, (
        f"sharded speedup {speedup:.2f}x below the 5x floor "
        f"(serial {serial_seconds:.3f}s, fleet {fleet_seconds:.3f}s)")


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="CPU-bound floor needs >= 4 cores; a small "
                           "runner cannot parallelize compute")
def test_e20_spawn_fleet_cpu_speedup_floor():
    """On a multi-core machine, the spawn fleet beats a single process
    by >= 2x on pure CPU-bound extraction."""
    serial = cpu_bound_world("serial", n_sources=N_SOURCES,
                             work_factor=WORK_FACTOR)
    fleet = cpu_bound_world(ConcurrencyConfig.sharded(4, pool="spawn"),
                            n_sources=N_SOURCES, work_factor=WORK_FACTOR)
    serial.extract_all()
    fleet.extract_all()  # warm: children spawned, world unpickled
    serial_seconds = best_of(ITERATIONS, serial.extract_all)
    fleet_seconds = best_of(ITERATIONS, fleet.extract_all)
    fleet.close()
    speedup = serial_seconds / fleet_seconds
    assert speedup >= 2.0, (
        f"spawn speedup {speedup:.2f}x below the 2x floor "
        f"(serial {serial_seconds:.3f}s, fleet {fleet_seconds:.3f}s)")
