"""Workload lifecycle: set up the system under test, run slices, tear down.

A wire workload's server runs in its own subprocess (``serve_world.py``)
that the harness drives over a one-line-JSON control pipe; the
``local_sql_join`` workload runs in this process.  Both present the same
four calls — ``setup`` / ``run_slice`` / ``stats`` / ``teardown`` — so
one run loop serves the driver's single-workload runs and the ledger's
round-robin over all four.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from loadgen import (InProcessClient, Sample, WireClient, build_oracle,
                     run_closed_loop)
from record import median, percentile, summary
from worlds import CLIENTS, build_world, make_spec, peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: the launcher must answer any command within this long
CONTROL_TIMEOUT_SECONDS = 60.0
#: durable ingests before the readers start, per slice
INGESTS_PER_SLICE = 2
CALIBRATION_ROUNDS = 100_000
#: the box speed at which CPU-bound timings are stated: what the
#: calibration chain reads on this box when nothing disturbs it.  It has to
#: be one number for every run — a reference taken from the run itself
#: (its fastest calibration) moves by 15 % between runs (README, "Noise")
REFERENCE_CALIBRATION_MS = 45.0
#: local_sql_join: one iteration in this many first issues an UPDATE
UPDATE_EVERY = 10


def calibration_ms() -> float:
    """A fixed sha256 chain: how fast this box is *right now*.  Printed
    per slice so a noisy slice can be told from a slow commit."""
    digest = b"ledger"
    began = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    return (time.perf_counter() - began) * 1e3


class ServerProcess:
    """The launcher subprocess and its control pipe."""

    def __init__(self, spec: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_world.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._buffer = b""
        try:
            self._send(spec)
            ready = self._receive("ready")
        except BaseException:
            self.kill()
            raise
        self.host, self.port = ready["host"], ready["port"]
        self.timings = ready["timings"]

    def _send(self, payload: dict) -> None:
        self.proc.stdin.write(json.dumps(payload).encode("utf-8") + b"\n")

    def _receive(self, expected: str) -> dict:
        deadline = time.monotonic() + CONTROL_TIMEOUT_SECONDS
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            chunk = os.read(self.proc.stdout.fileno(), 65536) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"launcher gave no {expected!r} reply (exit code "
                    f"{self.proc.poll()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        reply = json.loads(line)
        if reply.get("event") != expected:
            raise RuntimeError(f"launcher said {reply!r}, expected "
                               f"{expected!r}")
        return reply

    def command(self, cmd: str, **fields) -> dict:
        self._send({"cmd": cmd, **fields})
        return self._receive(cmd)

    def stop(self) -> dict:
        """Orderly shutdown; returns the launcher's closing report."""
        try:
            self._send({"cmd": "stop"})
            report = self._receive("stopped")
            self.proc.wait(timeout=CONTROL_TIMEOUT_SECONDS)
        except BaseException:
            self.kill()
            raise
        self._close_pipes()
        return report

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()


@dataclass
class SliceResult:
    """One measured slice: samples plus what ran beside them."""

    samples: list[Sample]
    start: float
    deadline: float
    calibration_ms: float
    calibration_after_ms: float
    ingests: list[dict] = field(default_factory=list)
    writes: list[dict] = field(default_factory=list)

    def throughput_qps(self) -> float:
        """Correct answers per second of the slice window.  A request
        that straddles the window edge counts by the share of its time
        inside, so a slice is not quantised to whole requests."""
        done = 0.0
        for sample in self.samples:
            if sample.ok and sample.end > sample.start:
                inside = (min(sample.end, self.deadline)
                          - max(sample.start, self.start))
                done += max(0.0, inside) / (sample.end - sample.start)
        return done / (self.deadline - self.start)


class Workload:
    """One named workload from one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.spec = make_spec(name, seed)
        self.oracle = build_oracle(self.spec)
        self.local = name == "local_sql_join"
        self.n_clients = CLIENTS[name]
        self.server: ServerProcess | None = None
        self.world = None
        self.clients: list = []
        self.scratch_dir: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self, *, one_client_per_tenant: bool = False) -> float:
        """World build + server/fleet start + materialization + warm-up;
        returns the seconds it took.  ``one_client_per_tenant`` replaces
        the workload's client count (the traced pass wants a request
        alone on its server, as the layer replay is)."""
        began = time.perf_counter()
        n_clients = (len(self.spec["tenants"]) if one_client_per_tenant
                     else self.n_clients)
        if self.local:
            self.world = build_world(self.spec)
            self.clients = [InProcessClient(
                self.world, "local", self.oracle["local"],
                update_every=UPDATE_EVERY)]
        else:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.scratch_dir = tempfile.mkdtemp(prefix="scratch-",
                                                dir=OUT_DIR)
            self.server = ServerProcess(
                {**self.spec, "scratch_dir": self.scratch_dir})
            tenants = self.spec["tenants"]
            self.clients = []
            for index in range(n_clients):
                tenant = tenants[index % len(tenants)]
                self.clients.append(WireClient(
                    self.server.host, self.server.port, tenant,
                    self.spec["shapes"][tenant], self.oracle[tenant],
                    offset=index))
        for client in self.clients:
            client.connect()
            for _ in range(max(3, len(client.ops))):
                if not client.request().ok:
                    raise RuntimeError(
                        f"{self.name}: warm-up reply failed the oracle")
        return time.perf_counter() - began

    def teardown(self) -> dict:
        """Stop everything ``setup`` started; returns closing stats."""
        report: dict = {}
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            server, self.server = self.server, None
            report = server.stop()
        if self.world is not None:
            self.world.close()
            self.world = None
        if self.scratch_dir is not None:
            shutil.rmtree(self.scratch_dir, ignore_errors=True)
            self.scratch_dir = None
        return report

    # -- measurement -------------------------------------------------------

    def run_slice(self, seconds: float, ingests: int = 0) -> SliceResult:
        """One closed-loop slice with a calibration either side of it.
        On the workload with a hub operator, ``ingests`` durable ingests
        run first, with no readers and calibrations of their own, and
        the scheduled writer runs beside the readers."""
        before = calibration_ms()
        ingested: list[dict] = []
        if ingests and "ingest_queries" in self.spec:
            ingested = self.server.command("ingest",
                                           count=ingests)["samples"]
            after = calibration_ms()
            for sample in ingested:
                sample["calibration_ms"] = (before + after) / 2
            before = after
        writer = "writer_period_seconds" in self.spec
        if writer:
            self.server.command("writer_on")
        try:
            samples, start, deadline = run_closed_loop(self.clients, seconds)
        finally:
            writes = (self.server.command("writer_off")["samples"]
                      if writer else [])
        if self.local:
            client = self.clients[0]
            writes = [{"total_ms": ms} for ms in client.update_ms]
            client.update_ms = []
        return SliceResult(samples, start, deadline, before,
                           calibration_ms(), ingested, writes)

    def stats(self) -> dict:
        """Peak RSS of the process under test, plus launcher counters."""
        if self.server is not None:
            return self.server.command("stats")
        return {"rss_mb": peak_rss_mb()}


#: the 95th percentile is taken over blocks of at least this many
#: consecutive samples, so that at least 10 lie beyond it
P95_BLOCK = 200


def blocks(values: list[float], size: int) -> list[list[float]]:
    """Consecutive blocks of ``size`` values; what is left over joins
    the last block (or is the only block)."""
    count = max(1, len(values) // size)
    return [values[i * size:(i + 1) * size if i < count - 1 else None]
            for i in range(count)]


def end_to_end(slices: list[SliceResult], setups: list[tuple[float, float]],
               rss_mb: float, *, refresh_block: int,
               cpu_bound: bool) -> dict[str, dict]:
    """The end-to-end metrics of one workload, each the median of
    per-slice (``query_p95_ms``: per-block) values with its quartiles.

    This box runs anything CPU-bound up to 1.7x slower for seconds or
    minutes at a time, and the calibration chain follows that to within
    a few percent.  So every timing of a CPU-bound workload is first
    carried to the reference box speed: multiplied by
    ``REFERENCE_CALIBRATION_MS`` over the mean of the calibrations
    taken either side of it.  The medians as read are kept in each
    entry's ``raw``.  A sleep-bound workload is reported as read.
    ``setups`` pairs each set-up's seconds with the mean calibration
    around it; ``refresh_block`` is how many sources the scheduled
    writer visits round-robin."""
    def scale(calibration: float) -> float:
        return REFERENCE_CALIBRATION_MS / calibration if cpu_bound else 1.0

    pooled = [s for piece in slices for s in piece.samples]
    failed = sum(1 for s in pooled if not s.ok)
    scales = [scale((piece.calibration_ms + piece.calibration_after_ms) / 2)
              for piece in slices]
    per_slice = [[s.ms for s in piece.samples if s.ok] for piece in slices]

    def scaled(values: list[float], factors: list[float], unit: str,
               *, rate: bool = False, **extra) -> dict:
        carried = [value / factor if rate else value * factor
                   for value, factor in zip(values, factors)]
        return summary(carried, unit, raw=median(values), **extra)

    # the tail needs more samples than a slice of a slow workload holds
    carried = sorted((s.start, s.ms * factor)
                     for piece, factor in zip(slices, scales)
                     for s in piece.samples if s.ok)
    tail_blocks = blocks([ms for _, ms in carried], P95_BLOCK)
    metrics = {
        "setup_s": scaled([seconds for seconds, _ in setups],
                          [scale(calibration) for _, calibration in setups],
                          "s"),
        "query_p50_ms": scaled([median(values) for values in per_slice],
                               scales, "ms", samples=len(pooled) - failed),
        "query_p95_ms": summary(
            [percentile(block, 0.95) for block in tail_blocks], "ms",
            raw=percentile([s.ms for s in pooled if s.ok], 0.95),
            samples=len(pooled) - failed,
            beyond=min(len(block) for block in tail_blocks) // 20),
        "throughput_qps": scaled([piece.throughput_qps() for piece in slices],
                                 scales, "1/s", rate=True),
        "peak_rss_mb": summary([rss_mb], "MB"),
        "failed_share": {"value": failed / max(1, len(pooled)),
                         "unit": "share", "attempted": len(pooled),
                         "failed": failed},
    }
    ingests = [i for piece in slices for i in piece.ingests]
    if ingests:
        metrics["ingest_p50_ms"] = scaled(
            [i["total_ms"] for i in ingests],
            [scale(i["calibration_ms"]) for i in ingests], "ms")
    refreshes = [w["total_ms"] * factor
                 for piece, factor in zip(slices, scales)
                 for w in piece.writes if "refresh_ms" in w]
    if refreshes:
        # a refresh costs what its source type costs, so samples are
        # taken a whole round-robin over the sources at a time
        rounds = [refreshes[i:i + refresh_block]
                  for i in range(0, len(refreshes) - refresh_block + 1,
                                 refresh_block)] or [refreshes]
        metrics["refresh_p50_ms"] = summary(
            [median(block) for block in rounds], "ms",
            samples=len(refreshes))
    return metrics


def diagnostics(slices: list[SliceResult]) -> dict[str, dict]:
    """``shape.<name>.p50_ms``: where the pooled median sits among the
    shapes of a mixed workload."""
    by_shape: dict[str, list[float]] = {}
    for piece in slices:
        for sample in piece.samples:
            if sample.ok:
                by_shape.setdefault(sample.shape, []).append(sample.ms)
    return {f"shape.{name}.p50_ms": {"value": median(values), "unit": "ms",
                                     "samples": len(values)}
            for name, values in sorted(by_shape.items())}
