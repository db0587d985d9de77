"""Span recorder and layer replay: where one request's time goes.

End-to-end numbers come from the untraced runs.  This module produces
the per-layer numbers from a separate traced pass.  The spans are the
ledger's own, recorded around public calls from outside the program: on
a world seeded identically to the server's, each sampled request is
re-enacted as the chain

    encode_frame -> decode_body -> parse_s2sql -> planner.plan ->
    (store.serve | manager.extract -> per-rule DataSource.execute_rule)
    -> generator.generate -> result_to_wire -> encode_frame ->
    decode_body -> result_from_wire

Filtering and fleet dispatch have no public call of their own, so one
traced ``QueryHandler.execute`` per request lends its ``filter``,
``shard.*`` and ``sql_plan`` spans, folded into the ledger's tree.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.query.parser import parse_s2sql
from repro.obs import Tracer
from repro.server import protocol
from repro.server.codec import result_from_wire, result_to_wire, sparql_to_wire

from harness import (OUT_DIR, UPDATE_EVERY, SliceResult, Workload,
                     calibration_ms)
from loadgen import (InProcessClient, Sample, check_reply, client_ops,
                     run_closed_loop)
from record import PER_LAYER, median
from worlds import World, build_world

#: program spans folded into the ledger tree, and the layer they show
FOLDED = {"filter": "executor.filter", "shard.interleave": "fleet.interleave",
          "shard.enqueue": "fleet.enqueue", "shard.dispatch": "fleet.dispatch",
          "shard.merge": "fleet.merge"}

#: DataSource.source_type -> the module that executes its rules
RULE_LAYER = {"xml": "xmlstore.rule", "webpage": "web.rule",
              "textfile": "textfiles.rule", "database": "relational.rule"}

#: children of a request span that are replay scaffolding, not layers
SCAFFOLDING = ("replay.traced_execute", "replay.raw_rules")


class SpanRecorder:
    """In-memory spans: name, start, end, parent, shared request id.

    Timed on ``time.monotonic``, the clock the program's own ``Tracer``
    uses, so folded program spans keep their real position."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, *, request: str | None = None, **attrs):
        parent = getattr(self._local, "current", None)
        record = {"id": next(self._ids),
                  "parent": parent["id"] if parent else None,
                  "request": request or (parent["request"] if parent
                                         else None),
                  "name": name, "start": time.monotonic(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._local.current = record
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._local.current = parent

    def fold(self, program_span, only: tuple[str, ...] = ()) -> None:
        """Copy the FOLDED spans (and ``sql_plan``-carrying attempts) of
        a finished program span tree under the current ledger span;
        ``only`` narrows that to the named program spans."""
        parent = self._local.current
        for span in program_span.walk():
            if only and span.name not in only:
                continue
            name = FOLDED.get(span.name)
            attrs = {}
            if name is None and "sql_plan" in span.attributes:
                name = "sql.plan"
                attrs = {"sql_plan": span.attributes["sql_plan"]}
            if name is not None and span.ended_at is not None:
                self.spans.append({
                    "id": next(self._ids), "parent": parent["id"],
                    "request": parent["request"], "name": name,
                    "start": span.started_at, "end": span.ended_at,
                    "attrs": attrs})

    def self_times_ms(self) -> dict[int, float]:
        """Span duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        result = {}
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            result[span["id"]] = (span["end"] - span["start"] - covered) * 1e3
        return result

    def write(self, path: str, **header) -> None:
        """The trace file: every span, with its self time."""
        self_ms = self.self_times_ms()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "clock": "time.monotonic seconds",
                       "spans": [{**span, "self_ms": self_ms[span["id"]]}
                                 for span in self.spans]}, handle)


class ReplayClient:
    """Re-enacts one tenant's requests layer by layer under spans."""

    def __init__(self, world: World, tenant: str, oracle: dict,
                 recorder: SpanRecorder, *, wire: bool, raw_rules: bool,
                 update_every: int = 0) -> None:
        self.world, self.tenant = world, tenant
        self.middleware = world.tenants[tenant]
        self.handler = self.middleware.query_handler
        self.ops = client_ops(world.spec["shapes"][tenant], 0)
        self.oracle = oracle
        self.recorder = recorder
        self.wire = wire
        self.raw_rules = raw_rules
        self.update_every = update_every
        self.cursor = 0
        self.sql_stats = {"rules": 0, "fallback": 0, "scanned": 0,
                          "returned": 0}
        self._explained: dict[tuple[str, str], bool] = {}

    def request(self) -> Sample:
        op = self.ops[self.cursor % len(self.ops)]
        self.cursor += 1
        rid = f"{self.tenant}-{self.cursor}"
        rec = self.recorder
        start = time.perf_counter()
        with rec.span("request", request=rid, shape=op["name"],
                      tenant=self.tenant):
            if self.update_every and self.cursor % self.update_every == 0:
                database, sql = self.world.next_update_sql()
                with rec.span("sql.update"):
                    database.execute(sql)
            if "sparql" in op:
                ok = self._sparql(op, rid)
            else:
                ok = self._query(op, rid)
        return Sample(op["name"], start, time.perf_counter(), ok)

    def _wire_in(self, frame: dict) -> dict:
        if not self.wire:
            return frame
        with self.recorder.span("protocol.encode", direction="request"):
            data = protocol.encode_frame(frame)
        with self.recorder.span("protocol.decode", direction="request"):
            return protocol.decode_body(data[4:])

    def _wire_out(self, frame: dict) -> dict:
        with self.recorder.span("protocol.encode", direction="response") as s:
            data = protocol.encode_frame(frame)
            s["attrs"]["bytes"] = len(data)
        with self.recorder.span("protocol.decode", direction="response"):
            return protocol.decode_body(data[4:])

    def _sparql(self, op: dict, rid: str) -> bool:
        frame = self._wire_in({"kind": protocol.SPARQL, "id": rid,
                               "sparql": op["sparql"]})
        with self.recorder.span("store.sparql"):
            answer = self.middleware.sparql(frame["sparql"])
        if self.wire:
            with self.recorder.span("codec.to_wire"):
                payload = sparql_to_wire(answer)
            self._wire_out({"kind": protocol.SPARQL_RESULT, "id": rid,
                            **payload})
        return len(answer) == self.oracle[op["name"]].count

    def _query(self, op: dict, rid: str) -> bool:
        rec = self.recorder
        if op.get("prepared"):
            # EXECUTE: the server kept the parsed AST at PARSE time
            self._wire_in({"kind": protocol.EXECUTE, "id": rid,
                           "portal": op["name"]})
            parsed = parse_s2sql(op["s2sql"])
        else:
            frame = self._wire_in({"kind": protocol.QUERY, "id": rid,
                                   "s2sql": op["s2sql"]})
            with rec.span("parser.parse"):
                parsed = parse_s2sql(frame["s2sql"])
        with rec.span("planner.plan"):
            plan = self.handler.planner.plan(parsed)
        if self.middleware.store is not None:
            with rec.span("store.serve") as span:
                serving = self.middleware.store.serve(plan)
                span["attrs"]["hit"] = serving is not None
        else:
            self._extract_and_generate(plan)
        # filtering and result assembly have no public call of their
        # own: borrow them from one traced execution of the same query
        with rec.span("replay.traced_execute"):
            result = self.handler.execute(parsed, tracer=Tracer(keep_last=1))
            rec.fold(result.trace.root, only=("filter",))
        reply = result
        if self.wire:
            with rec.span("codec.to_wire", entities=len(result)):
                payload = result_to_wire(result)
            frame = self._wire_out({"kind": protocol.RESULT, "id": rid,
                                    "result": payload})
            with rec.span("codec.from_wire"):
                reply = result_from_wire(frame["result"])
        return check_reply(reply, self.oracle[op["name"]])

    def _extract_and_generate(self, plan) -> None:
        rec = self.recorder
        manager = self.middleware.manager
        carrier = Tracer(keep_last=0).start("extract")
        with rec.span("extractor.extract") as span:
            outcome = manager.extract(plan.required_attributes, span=carrier)
            carrier.finish()
            span["attrs"]["rules"] = sum(
                len(record_set.fragments)
                for record_set in outcome.record_sets.values())
            rec.fold(carrier)
        with rec.span("instances.generate") as span:
            generation = self.handler.generator.generate(outcome,
                                                         plan.class_name)
            span["attrs"]["entities"] = len(generation.entities)
        if self.raw_rules:
            with rec.span("replay.raw_rules"):
                self.run_raw_rules(plan)

    def run_raw_rules(self, plan) -> None:
        """Every rule of the plan straight on its ``DataSource``, with
        none of the extractor's policy around it."""
        manager = self.middleware.manager
        schema = manager.obtain_extraction_schema(plan.required_attributes)
        for source_id in schema.source_ids():
            source = manager.sources.get(source_id)
            layer = RULE_LAYER[source.source_type]
            for entry in schema.by_source[source_id]:
                code = entry.rule.code
                # a wrapped (slow) source hides its SQL engine
                is_sql = hasattr(source, "explain_sql")
                kind = layer
                if is_sql:
                    kind = ("sql.join" if self._falls_back(source, code)
                            else "sql.scan")
                with self.recorder.span(kind, layer=layer):
                    values = source.execute_rule(code)
                if is_sql:
                    self._count_sql(source, code, len(values))

    def _falls_back(self, source, code: str) -> bool:
        key = (source.source_id, code)
        if key not in self._explained:
            self._explained[key] = "fallback" in source.explain_sql(code)
        return self._explained[key]

    def _count_sql(self, source, code: str, returned: int) -> None:
        plan = source.database.last_plan
        self.sql_stats["rules"] += 1
        self.sql_stats["fallback"] += self._falls_back(source, code)
        self.sql_stats["returned"] += returned
        if plan is not None:
            self.sql_stats["scanned"] += plan.rows_scanned


def _layer_sums_ms(spans: list[dict]) -> list[float]:
    """Per request: the summed time of its layer spans — what the replay
    can attribute, to set against the end-to-end figure.  Replay
    scaffolding is left out, except the ``filter`` span it lends."""
    requests = {s["id"] for s in spans if s["name"] == "request"}
    scaffolds = {s["id"]: s["parent"] for s in spans
                 if s["name"] in SCAFFOLDING}
    sums = dict.fromkeys(requests, 0.0)
    for span in spans:
        parent = span["parent"]
        if span["name"] in SCAFFOLDING:
            continue
        if span["name"] == "executor.filter":
            parent = scaffolds.get(parent, parent)
        if parent in sums:
            sums[parent] += (span["end"] - span["start"]) * 1e3
    return list(sums.values())


def _serial_extract_ms(spec: dict) -> float:
    """The CPU part of the fleet's work: the same extractions run
    serially, in-process, on the sleepless world — summed over tenants,
    because a thread fleet's CPU shares one GIL."""
    world = build_world(spec, oracle=True)
    try:
        total = 0.0
        for tenant, middleware in world.tenants.items():
            plan = middleware.query_handler.planner.plan(
                parse_s2sql(spec["shapes"][tenant][0]["s2sql"]))
            runs = []
            for _ in range(5):
                began = time.perf_counter()
                middleware.manager.extract(plan.required_attributes)
                runs.append((time.perf_counter() - began) * 1e3)
            total += median(runs)
        return total
    finally:
        world.close()


def _p50(samples: list[Sample]) -> float:
    return median([s.ms for s in samples if s.ok])


def _per_request_ms(spans: list[dict], name: str) -> list[float]:
    """Per request that has the span at all: its total time in it."""
    totals: dict[str, float] = {}
    for span in spans:
        if span["name"] == name:
            totals[span["request"]] = (totals.get(span["request"], 0.0)
                                       + (span["end"] - span["start"]) * 1e3)
    return list(totals.values())


def _durations_ms(spans: list[dict], **attrs) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans
            if all(s.get(k) == v or s["attrs"].get(k) == v
                   for k, v in attrs.items())]


#: the traced pass alternates its four kinds of burst, so that figures
#: set against each other saw the same noise: one round per this many
#: seconds, within these limits
ROUND_SECONDS, MIN_ROUNDS, MAX_ROUNDS = 2.0, 2, 5
#: share of the pass each burst kind gets
WIRE_SHARE, PLAIN_SHARE, TRACED_SHARE, REPLAY_SHARE = 0.25, 0.125, 0.125, 0.5


@dataclass
class TracedRun:
    """What the traced pass collected, before any arithmetic."""

    workload: Workload
    fleet: bool
    #: per round: samples of each burst kind, that round's replay spans
    #: and the calibration taken before its first burst
    rounds: list[dict]
    wire: list[SliceResult]
    spans: list[dict]
    stats_before: dict
    stats_after: dict
    sql_stats: dict[str, int]
    span_counts: list[int]
    owl_ms: list[float]
    retries: int
    fleet_cpu_ms: float


def _collect(workload: Workload, seconds: float) -> TracedRun:
    spec, oracle = workload.spec, workload.oracle
    tenants = spec["tenants"]
    update_every = UPDATE_EVERY if workload.local else 0
    recorder = SpanRecorder()
    wire: list[SliceResult] = []
    rounds: list[dict] = []
    before = after = {}
    world = None
    try:
        if not workload.local:
            workload.setup(one_client_per_tenant=True)
            before = workload.stats()
        world = build_world(spec)
        for query in spec.get("ingest_queries", []):
            world.tenants["hub"].materialize(query)
        fleet = world.fleet is not None
        plain = [InProcessClient(world, t, oracle[t],
                                 update_every=update_every) for t in tenants]
        traced = [InProcessClient(world, t, oracle[t], traced=True,
                                  update_every=update_every) for t in tenants]
        replayers = [ReplayClient(world, t, oracle[t], recorder,
                                  wire=not workload.local,
                                  raw_rules=not fleet,
                                  update_every=update_every) for t in tenants]
        if fleet:
            # sleep-bound rules: replay them once, not per request
            for replayer in replayers:
                plan = replayer.handler.planner.plan(
                    parse_s2sql(replayer.ops[0]["s2sql"]))
                with recorder.span("replay.raw_rules",
                                   request=f"raw-{replayer.tenant}"):
                    replayer.run_raw_rules(plan)
        n_rounds = max(MIN_ROUNDS, min(MAX_ROUNDS,
                                       int(seconds / ROUND_SECONDS)))
        burst = seconds / n_rounds
        for _ in range(n_rounds):
            entry: dict = {}
            if workload.local:
                entry["calibration_ms"] = calibration_ms()
            else:
                # long enough for the scheduled writer to tick at all
                piece = workload.run_slice(
                    max(burst * WIRE_SHARE,
                        spec.get("writer_period_seconds", 0.0)),
                    ingests=1)
                wire.append(piece)
                entry["wire"] = piece.samples
                entry["calibration_ms"] = piece.calibration_ms
            entry["plain"] = run_closed_loop(plain, burst * PLAIN_SHARE)[0]
            entry["traced"] = run_closed_loop(traced, burst * TRACED_SHARE)[0]
            mark = len(recorder.spans)
            entry["replayed"] = run_closed_loop(replayers,
                                                burst * REPLAY_SHARE)[0]
            entry["spans"] = recorder.spans[mark:]
            rounds.append(entry)
        if not workload.local:
            after = workload.stats()
        owl_ms = []
        result = world.tenants[tenants[0]].query(
            spec["shapes"][tenants[0]][0]["s2sql"])
        for _ in range(3):
            began = time.perf_counter()
            result.serialize("owl")
            owl_ms.append((time.perf_counter() - began) * 1e3)
        run = TracedRun(
            workload, fleet, rounds, wire, recorder.spans, before, after,
            sql_stats={key: sum(r.sql_stats[key] for r in replayers)
                       for key in replayers[0].sql_stats},
            span_counts=[n for client in traced for n in client.span_counts],
            owl_ms=owl_ms,
            retries=sum(m.manager.retry_count
                        for m in world.tenants.values()),
            fleet_cpu_ms=_serial_extract_ms(spec) if fleet else 0.0)
    finally:
        workload.teardown()
        if world is not None:
            world.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write(os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
                   workload=workload.name, seed=spec["seed"])
    return run


#: metric -> (span name, scale): the median over requests of the time one
#: request spent in that layer's spans
REQUEST_TIMES = {
    "protocol.encode_us": ("protocol.encode", 1e3),
    "protocol.decode_us": ("protocol.decode", 1e3),
    "codec.to_wire_ms": ("codec.to_wire", 1),
    "codec.from_wire_ms": ("codec.from_wire", 1),
    "parser.parse_us": ("parser.parse", 1e3),
    "planner.plan_us": ("planner.plan", 1e3),
    "extractor.extract_ms": ("extractor.extract", 1),
    "instances.generate_ms": ("instances.generate", 1),
    "executor.filter_ms": ("executor.filter", 1),
    "store.serve_ms": ("store.serve", 1),
    "store.sparql_ms": ("store.sparql", 1),
}


def _replay_values(run: TracedRun, value: dict) -> None:
    """Everything read off the replay's spans."""
    spans = run.spans
    for metric, (span_name, scale) in REQUEST_TIMES.items():
        value[metric] = median(_per_request_ms(spans, span_name)) * scale
    for metric in ("sql.scan", "sql.join", "sql.update"):
        value[f"{metric}_ms"] = median(_durations_ms(spans, name=metric))
    for layer in RULE_LAYER.values():
        value[f"{layer}_ms"] = median(_durations_ms(spans, layer=layer))

    responses = [s for s in spans if s["name"] == "protocol.encode"
                 and s["attrs"]["direction"] == "response"]
    value["protocol.response_bytes"] = median(
        [s["attrs"]["bytes"] for s in responses])
    coded = {s["request"]: s["attrs"]["entities"] for s in spans
             if s["name"] == "codec.to_wire" and s["attrs"].get("entities")}
    if coded:
        value["codec.bytes_per_entity"] = sum(
            s["attrs"]["bytes"] for s in responses
            if s["request"] in coded) / sum(coded.values())

    extracts = [s for s in spans if s["name"] == "extractor.extract"]
    value["extractor.rules_executed"] = median(
        [s["attrs"]["rules"] for s in extracts])
    value["extractor.retries"] = run.retries
    if extracts and not run.fleet:
        value["extractor.policy_overhead_ms"] = (
            value["extractor.extract_ms"]
            - median(_per_request_ms(spans, "replay.raw_rules")))
    generated = [s for s in spans if s["name"] == "instances.generate"]
    entities = sum(s["attrs"]["entities"] for s in generated)
    if entities:
        value["instances.us_per_entity"] = sum(
            s["end"] - s["start"] for s in generated) * 1e6 / entities
    value["instances.serialize_owl_ms"] = median(run.owl_ms)

    sql = run.sql_stats
    if sql["rules"]:
        value["sql.row_fallback_share"] = sql["fallback"] / sql["rules"]
    if sql["returned"]:
        value["sql.rows_scanned_per_row_returned"] = (sql["scanned"]
                                                      / sql["returned"])


def _round_values(run: TracedRun, value: dict) -> None:
    """Figures set against each other within a round, then the median
    over rounds."""
    rounds = run.rounds
    value["harness.calibration_ms"] = median(
        [entry["calibration_ms"] for entry in rounds])
    value["obs.trace_overhead_share"] = median(
        [_p50(entry["traced"]) / _p50(entry["plain"]) - 1.0
         for entry in rounds])
    value["obs.spans_per_query"] = median(run.span_counts)
    e2e_kind = "plain" if run.workload.local else "wire"
    value["harness.e2e_single_client_ms"] = median(
        [_p50(entry[e2e_kind]) for entry in rounds])
    value["harness.unattributed_share"] = median(
        [1.0 - median(_layer_sums_ms(entry["spans"])) / _p50(entry[e2e_kind])
         for entry in rounds])
    if run.wire:
        value["server.wire_overhead_ms"] = median(
            [_p50(entry["wire"]) - _p50(entry["plain"]) for entry in rounds])


def _server_values(run: TracedRun, value: dict) -> None:
    """What the launcher and the wire bursts reported: server and store
    counters, the operator's ingests and refreshes, the fleet."""
    if not run.wire:
        return
    after = run.stats_after
    value["server.rejected"] = after["rejected"]
    value["store.graph_triples"] = after.get("graph_triples", 0)
    queries = [s for piece in run.wire for s in piece.samples
               if s.ok and not s.shape.startswith("sparql")]
    value["store.hit_share"] = (sum(s.store_hit for s in queries)
                                / max(1, len(queries)))
    value["store.stale_share"] = (sum(s.store_stale for s in queries)
                                  / max(1, len(queries)))
    writes = [w for piece in run.wire for w in piece.writes]
    if writes:
        value["refresh_p50_ms"] = median([w["total_ms"] for w in writes])
        value["store.refresh_ms"] = median([w["refresh_ms"] for w in writes])
        counts = [n for w in writes for n in w["reextracted"]]
        value["store.sources_reextracted_per_refresh"] = (sum(counts)
                                                          / len(counts))
        value["harness.loadgen_lag_ms"] = median(
            [w["lag_ms"] for w in writes])
    ingests = [i for piece in run.wire for i in piece.ingests]
    if ingests:
        value["ingest_p50_ms"] = median([i["total_ms"] for i in ingests])
        value["ingest.run_ms"] = median([i["run_ms"] for i in ingests])
        value["ingest.jobs_per_s"] = median(
            [i["jobs"] / (i["run_ms"] / 1e3) for i in ingests])
        value["ingest.journal_records"] = median(
            [i["journal_records"] for i in ingests])
        value["ingest.journal_bytes"] = median(
            [i["journal_bytes"] for i in ingests])
    if run.fleet:
        settings = run.workload.spec["fleet"]
        # every rule sleeps once; spread evenly over the workers, the
        # tenants' concurrent queries cannot finish sooner than this
        ideal_ms = (len(run.workload.spec["tenants"])
                    * value["extractor.rules_executed"]
                    * settings["latency_seconds"] * 1e3
                    / settings["n_workers"])
        wall_ms = value["extractor.extract_ms"]
        value["fleet.efficiency"] = ideal_ms / wall_ms
        value["fleet.dispatch_overhead_ms"] = (wall_ms - ideal_ms
                                               - run.fleet_cpu_ms)
        served = sum(len(piece.samples) for piece in run.wire)
        value["fleet.dispatches"] = (
            after["fleet_dispatches"]
            - run.stats_before["fleet_dispatches"]) / served
        value["fleet.worker_restarts"] = after["fleet_worker_restarts"]


def traced_pass(workload: Workload, seconds: float) -> dict:
    """The per-layer numbers of one workload.

    Four kinds of burst alternate: a one-client-per-tenant wire burst
    (the end-to-end figure the layers must add up to, with the hub
    operator's ingests and scheduled refreshes beside it), and — on an
    in-process world seeded identically to the server's — an untraced
    burst, a ``Tracer()``-installed burst, and the layer replay under
    the span recorder.  Differences between burst kinds are taken
    within a round and the median over rounds is reported.  A layer the
    workload never enters reports 0."""
    run = _collect(workload, seconds)
    value = dict.fromkeys(PER_LAYER, 0.0)
    everything = [s for entry in run.rounds
                  for kind in ("wire", "plain", "traced", "replayed")
                  for s in entry.get(kind, [])]
    failed = sum(1 for s in everything if not s.ok)
    value["failed_share"] = failed / max(1, len(everything))
    _replay_values(run, value)
    _round_values(run, value)
    _server_values(run, value)
    return {"metrics": {metric: {"value": value[metric], "unit": unit}
                        for metric, (unit, _better) in PER_LAYER.items()},
            "attempted": len(everything), "failed": failed}
