"""E16 — extraction fan-out: capped vs unbounded threads over slow sources.

The thread engine's adaptive pool caps at ``min(n_sources, 16)``
workers, so 64 sources that each take ~20 ms of wire latency drain in
four sequential waves; ``ConcurrencyConfig(max_workers=0)`` gives every
source its own thread, so all 64 latencies overlap.  This benchmark
wraps every connector of a 64-source world in a
:class:`~repro.sources.flaky.FlakySource` with 20 ms injected latency
(no faults) and measures one full extraction scan under:

* **thread** — the adaptive thread pool (16 workers, fan-out capped);
* **thread_unbounded** — ``ConcurrencyConfig(max_workers=0)``, one
  thread per source.

Acceptance: the unbounded scan is at least 2x faster than the capped
scan.  ``E16_ITERATIONS=1`` puts the benchmark in CI smoke mode; the
default takes the best of 3 runs per cell.
"""

from __future__ import annotations

import os
import time

from repro.bench import ResultTable
from repro.config import ConcurrencyConfig
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

ITERATIONS = int(os.environ.get("E16_ITERATIONS", "3"))
N_SOURCES = 64
LATENCY_SECONDS = 0.02

ENGINES = {
    "thread": "thread",
    "thread_unbounded": ConcurrencyConfig(mode="thread", max_workers=0),
}


def build_world(concurrency):
    """A 64-source world where every rule execution costs ~20 ms."""
    scenario = B2BScenario(n_sources=N_SOURCES, n_products=N_SOURCES,
                           seed=7)
    s2s = scenario.build_middleware(concurrency=concurrency)
    for org in scenario.organizations:
        s2s.source_repository.register(
            FlakySource(s2s.source_repository.get(org.source_id),
                        failure_rate=0.0, latency=LATENCY_SECONDS),
            replace=True)
    return s2s


def best_of(runs: int, operation) -> float:
    return min(_timed(operation) for _ in range(runs))


def _timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def test_e16_fanout_report():
    table = ResultTable(
        f"E16: extraction fan-out over {N_SOURCES} sources at "
        f"{LATENCY_SECONDS * 1000:.0f} ms/rule (best of {ITERATIONS})",
        ["engine", "scan_seconds", "speedup_vs_thread"])
    timings = {}
    for name, concurrency in ENGINES.items():
        s2s = build_world(concurrency)
        s2s.extract_all()  # warm connections and rule compilation
        timings[name] = best_of(ITERATIONS, s2s.extract_all)
    for name, seconds in timings.items():
        table.add_row(name, seconds, timings["thread"] / seconds)
    table.print()


def test_e16_engines_extract_identical_records():
    capped = build_world("thread").extract_all()
    unbounded = build_world(ENGINES["thread_unbounded"]).extract_all()
    assert unbounded.total_records() == capped.total_records()
    assert unbounded.ok and capped.ok


def test_e16_unbounded_speedup_floor():
    """Acceptance criterion: unbounded threads >= 2x over the capped
    pool."""
    capped = build_world("thread")
    unbounded = build_world(ENGINES["thread_unbounded"])
    capped.extract_all()  # warm
    unbounded.extract_all()
    capped_seconds = best_of(ITERATIONS, capped.extract_all)
    unbounded_seconds = best_of(ITERATIONS, unbounded.extract_all)
    speedup = capped_seconds / unbounded_seconds
    assert speedup >= 2.0, (
        f"unbounded speedup {speedup:.2f}x below the 2x floor (capped "
        f"{capped_seconds:.3f}s, unbounded {unbounded_seconds:.3f}s)")
