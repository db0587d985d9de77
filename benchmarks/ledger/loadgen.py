"""Correctness oracle and closed-loop load generation.

The oracle computes, per tenant and query shape, the expected entity
count and a content digest from a serial in-process run on the same
seed, and cross-checks the count against the scenario's ground truth.
Every measured reply is checked against it; a mismatch is a failure,
exactly like a refused or errored request.

The clients are closed-loop: each sends its next request only after the
previous reply arrived, because B2B partner applications block on their
answer.  All clients live in this one process, one thread each.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

from repro.errors import S2SError
from repro.obs import Tracer
from repro.server import S2SClient

from worlds import SQL_BUCKETS, SQL_ROWS, World, build_world

#: a client gives up on a reply after this long and counts a failure
REQUEST_TIMEOUT_SECONDS = 20.0


@dataclass(frozen=True)
class Expected:
    """What a correct reply to one shape looks like."""

    count: int
    digest: str
    store_hit: bool = False


@dataclass
class Sample:
    """One request as its caller saw it."""

    shape: str
    start: float
    end: float
    ok: bool
    store_hit: bool = False
    store_stale: bool = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def answer_digest(entities) -> str:
    """Order-independent digest over what an answer *says*: every
    individual's class and values, per (source, record).  Works on
    in-process ``AssembledEntity`` and wire ``RemoteEntity`` alike."""
    rows = sorted(
        (entity.source_id, entity.record_index,
         [(individual.class_name, sorted(individual.values.items()))
          for individual in entity.all_individuals()])
        for entity in entities)
    return hashlib.sha1(repr(rows).encode("utf-8")).hexdigest()


def _ground_truth_count(spec: dict, tenant: str, shape: dict,
                        world: World) -> int:
    if spec["workload"] == "local_sql_join":
        return len(spec["sql_seeds"]) * SQL_ROWS // SQL_BUCKETS
    truth = world.scenarios[tenant].ground_truth()
    if "brand" in shape:
        return sum(1 for product in truth if product.brand == shape["brand"])
    if "price_below" in shape:
        return sum(1 for product in truth
                   if product.price < shape["price_below"])
    return len(truth)


def build_oracle(spec: dict) -> dict[str, dict[str, Expected]]:
    """Expected replies, ``oracle[tenant][shape name]``.  Raises when
    the serial run is degraded or disagrees with the ground truth — a
    world the oracle cannot vouch for must not be measured."""
    world = build_world(spec, oracle=True)
    try:
        oracle: dict[str, dict[str, Expected]] = {}
        for tenant, shapes in spec["shapes"].items():
            middleware = world.tenants[tenant]
            oracle[tenant] = {}
            for shape in shapes:
                if "sparql" in shape:
                    continue
                result = middleware.query(shape["s2sql"])
                truth = _ground_truth_count(spec, tenant, shape, world)
                if result.degraded or len(result) != truth or not truth:
                    raise S2SError(
                        f"oracle for {tenant}/{shape['name']}: serial run "
                        f"gave {len(result)} entities (degraded="
                        f"{result.degraded}), ground truth says {truth}")
                oracle[tenant][shape["name"]] = Expected(
                    len(result), answer_digest(result.entities),
                    store_hit=bool(spec.get("store")))
    finally:
        world.close()
    if spec.get("store"):
        # one provenance row per stored entity: count it on a store
        # materialized exactly as the server's is
        world = build_world(spec)
        try:
            hub = world.tenants["hub"]
            for query in spec["ingest_queries"]:
                hub.materialize(query)
            for shape in spec["shapes"]["hub"]:
                if "sparql" in shape:
                    oracle["hub"][shape["name"]] = Expected(
                        len(hub.sparql(shape["sparql"])), "")
        finally:
            world.close()
    return oracle


def check_reply(reply, expected: Expected) -> bool:
    """Whether a query reply is the complete, correct answer."""
    return (len(reply) == expected.count
            and not reply.degraded
            and bool(reply.store_hit) == expected.store_hit
            and answer_digest(reply.entities) == expected.digest)


def client_ops(shapes: list[dict], offset: int) -> list[dict]:
    """The fixed request cycle of one client.  S2SQL shapes alternate
    with equal weight; a SPARQL shape, when the workload has one, takes
    every tenth slot.  ``offset`` rotates the cycle so that clients do
    not run in lockstep."""
    reads = [shape for shape in shapes if "s2sql" in shape]
    sparql = [shape for shape in shapes if "sparql" in shape]
    cycle = reads
    if sparql:
        cycle = [reads[i % len(reads)] for i in range(9)] + sparql[:1]
    offset %= len(cycle)
    return cycle[offset:] + cycle[:offset]


class WireClient:
    """One closed-loop ``S2SClient`` connection for one tenant."""

    def __init__(self, host: str, port: int, tenant: str,
                 shapes: list[dict], oracle: dict[str, Expected],
                 offset: int) -> None:
        self.host, self.port, self.tenant = host, port, tenant
        self.ops = client_ops(shapes, offset)
        self.oracle = oracle
        self.cursor = 0
        self.client: S2SClient | None = None
        self.statements: dict = {}

    def connect(self) -> None:
        self.client = S2SClient(self.host, self.port, tenant=self.tenant,
                                timeout=REQUEST_TIMEOUT_SECONDS).connect()
        self.statements = {
            op["name"]: self.client.prepare(op["name"], op["s2sql"])
            for op in self.ops if op.get("prepared")}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def request(self) -> Sample:
        op = self.ops[self.cursor % len(self.ops)]
        self.cursor += 1
        expected = self.oracle[op["name"]]
        start = time.perf_counter()
        try:
            if self.client is None:
                self.connect()
            if "sparql" in op:
                reply = self.client.sparql(op["sparql"])
            elif op.get("prepared"):
                reply = self.statements[op["name"]].execute()
            else:
                reply = self.client.query(op["s2sql"])
        except (S2SError, OSError):
            # refused (RETRY_AFTER), ERROR frame, torn frame or timeout
            end = time.perf_counter()
            self.close()  # the next request reconnects
            return Sample(op["name"], start, end, False)
        end = time.perf_counter()
        if "sparql" in op:
            return Sample(op["name"], start, end,
                          len(reply) == expected.count)
        return Sample(op["name"], start, end, check_reply(reply, expected),
                      reply.store_hit, reply.store_stale)


class InProcessClient:
    """A closed-loop caller of the middleware itself, no wire: the
    ``local_sql_join`` client, and the in-process yardstick the traced
    pass compares the wire against.  With ``update_every`` set, every
    n-th iteration first issues an answer-preserving UPDATE, timed
    apart from the read.  With ``traced`` set, each query runs under a
    one-shot ``Tracer`` and the span count is kept."""

    def __init__(self, world: World, tenant: str,
                 oracle: dict[str, Expected], offset: int = 0, *,
                 update_every: int = 0, traced: bool = False) -> None:
        self.world = world
        self.middleware = world.tenants[tenant]
        self.ops = client_ops(world.spec["shapes"][tenant], offset)
        self.oracle = oracle
        self.update_every = update_every
        self.traced = traced
        self.cursor = 0
        self.update_ms: list[float] = []
        self.span_counts: list[int] = []

    def connect(self) -> None:
        pass

    def close(self) -> None:
        pass

    def request(self) -> Sample:
        op = self.ops[self.cursor % len(self.ops)]
        self.cursor += 1
        if self.update_every and self.cursor % self.update_every == 0:
            database, sql = self.world.next_update_sql()
            began = time.perf_counter()
            database.execute(sql)
            self.update_ms.append((time.perf_counter() - began) * 1e3)
        expected = self.oracle[op["name"]]
        start = time.perf_counter()
        try:
            if "sparql" in op:
                reply = self.middleware.sparql(op["sparql"])
            elif self.traced:
                reply = self.middleware.query_handler.execute(
                    op["s2sql"], tracer=Tracer(keep_last=1))
            else:
                reply = self.middleware.query(op["s2sql"])
        except S2SError:
            return Sample(op["name"], start, time.perf_counter(), False)
        end = time.perf_counter()
        if "sparql" in op:
            return Sample(op["name"], start, end,
                          len(reply) == expected.count)
        if self.traced:
            self.span_counts.append(sum(1 for _ in reply.trace.walk()))
        return Sample(op["name"], start, end, check_reply(reply, expected),
                      reply.store_hit, reply.store_stale)


def run_closed_loop(clients: list, seconds: float) -> tuple[
        list[Sample], float, float]:
    """Drive every client until ``seconds`` have passed; a request in
    flight at the deadline completes and is kept.  Returns the samples
    and the slice's ``[start, deadline]`` window."""
    per_client: list[list[Sample]] = [[] for _ in clients]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(index: int) -> None:
        client, samples = clients[index], per_client[index]
        while time.perf_counter() < deadline:
            samples.append(client.request())

    if len(clients) == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(index,),
                                    name=f"ledger-client-{index}")
                   for index in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return ([sample for samples in per_client for sample in samples],
            start, deadline)
