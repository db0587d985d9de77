"""Command-line interface: ``python -m repro <command>``.

Commands operate on a self-contained demo world (the deterministic B2B
scenario generator), so the middleware can be explored without writing
any code:

* ``demo`` — build a scenario, run the paper's example query, print the
  integrated answer;
* ``query`` — run an arbitrary S2SQL query against a scenario;
* ``mapping`` — print the attribute repository in the paper's
  ``attr = rule, source`` format;
* ``plan`` — parse an S2SQL query and show the extraction plan
  (class closure + required attributes) without executing it;
* ``ontology`` — print the demo ontology as OWL (RDF/XML) or Turtle.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .core.instances.outputs import OUTPUT_FORMATS
from .core.query.parser import parse_s2sql
from .core.query.planner import QueryPlanner
from .core.resilience.config import SHARDED_POOL_KINDS
from .errors import S2SError
from .ontology.builders import watch_domain_ontology
from .ontology.owlxml import serialize_ontology
from .workloads import B2BScenario, ConflictProfile

_CONFLICT_LEVELS = {
    "none": ConflictProfile(schematic=False, semantic=False),
    "schematic": ConflictProfile(schematic=True, semantic=False),
    "full": ConflictProfile(schematic=True, semantic=True),
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sources", type=int, default=4,
                        help="number of organizations (default 4)")
    parser.add_argument("--products", type=int, default=20,
                        help="catalog size (default 20)")
    parser.add_argument("--conflicts", choices=sorted(_CONFLICT_LEVELS),
                        default="full",
                        help="heterogeneity level (default full)")
    parser.add_argument("--seed", type=int, default=7,
                        help="world seed (default 7)")
    parser.add_argument("--concurrency",
                        choices=("serial", "thread", "sharded"),
                        default=None,
                        help="extraction engine: serial (default), a "
                             "thread pool, or the sharded worker fleet")
    parser.add_argument("--sql-engine", choices=("row", "columnar"),
                        default="columnar",
                        help="SELECT executor for database sources: "
                             "vectorized columnar (default) or the "
                             "row-at-a-time oracle")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="print the per-query span tree to stderr")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry to stderr")


def _configured(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the ValueError of a refused value
    raised as an S2SError, which :func:`main` prints as one ``error:``
    line.  The config classes stay the only place that states a bound."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise S2SError(str(exc)) from None


def _scenario(args: argparse.Namespace, seed: int) -> B2BScenario:
    """The demo world the scenario arguments describe, under ``seed``."""
    return B2BScenario(n_sources=args.sources, n_products=args.products,
                       conflicts=_CONFLICT_LEVELS[args.conflicts],
                       seed=seed, sql_engine=args.sql_engine)


def _build(args: argparse.Namespace, *, store: bool = False):
    from .config import ConcurrencyConfig
    from .obs import MetricsRegistry, Tracer

    scenario = _scenario(args, args.seed)
    query_workers = getattr(args, "query_workers", None)
    query_pool = getattr(args, "query_pool", None)
    if query_workers is not None or query_pool is not None:
        # --workers / --pool imply the sharded fleet engine.
        concurrency = _configured(ConcurrencyConfig.sharded, query_workers,
                                  pool=query_pool)
    else:
        concurrency = ConcurrencyConfig(mode=args.concurrency or "serial")
    tracer = Tracer() if getattr(args, "trace", False) else None
    middleware = scenario.build_middleware(concurrency=concurrency,
                                           tracer=tracer,
                                           metrics=MetricsRegistry(),
                                           store=store)
    return scenario, args.owned.enter_context(middleware)


def _report_observability(args: argparse.Namespace, s2s, result) -> None:
    """Append --trace / --metrics output to stderr, after the answer."""
    if getattr(args, "trace", False) and result.trace is not None:
        print(f"\n--- trace ---\n{result.trace.render()}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print(f"\n--- metrics ---\n{s2s.metrics().render_text()}",
              file=sys.stderr)


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario, s2s = _build(args)
    print(f"world: {args.sources} organizations "
          f"({', '.join(sorted({o.source_type for o in scenario.organizations}))}), "
          f"{args.products} products, conflicts={args.conflicts}")
    query = 'SELECT product WHERE case = "stainless-steel"'
    print(f"query: {query}\n")
    result = s2s.query(query)
    print(result.serialize("text"))
    print(f"{len(result)} products integrated from "
          f"{len({e.source_id for e in result.entities})} sources "
          f"({result.errors.summary()}, "
          f"{result.elapsed_seconds * 1e3:.1f} ms)")
    _report_observability(args, s2s, result)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if bool(args.s2sql) == bool(args.batch_file):
        print("error: provide either an S2SQL query or --batch-file, "
              "not both", file=sys.stderr)
        return 2
    merge_key = args.merge_key.split(",") if args.merge_key else None
    _scenario, s2s = _build(args)
    if args.batch_file:
        return _run_batch_file(args, s2s, merge_key)
    result = s2s.query(args.s2sql, merge_key=merge_key)
    sys.stdout.write(result.serialize(args.format))
    if not result.errors.ok:
        print(f"\n[{result.errors.summary()}]", file=sys.stderr)
        for entry in result.errors.entries:
            print(f"  {entry}", file=sys.stderr)
    _report_observability(args, s2s, result)
    return 0


def _read_batch_file(path: str) -> list[str]:
    """One S2SQL query per line; blank lines and # comments skipped."""
    with open(path, encoding="utf-8") as handle:
        return [line.strip() for line in handle
                if line.strip() and not line.strip().startswith("#")]


def _run_batch_file(args: argparse.Namespace, s2s,
                    merge_key: list[str] | None) -> int:
    queries = _read_batch_file(args.batch_file)
    if not queries:
        print(f"error: no queries in {args.batch_file}", file=sys.stderr)
        return 2
    results = s2s.query_many(queries, merge_key=merge_key)
    for query, result in zip(queries, results):
        print(f"=== {query} ({len(result)} entities) ===")
        sys.stdout.write(result.serialize(args.format))
        print()
        if not result.errors.ok:
            print(f"[{result.errors.summary()}]", file=sys.stderr)
    print(f"{len(results)} queries in one shared scan "
          f"({results[0].elapsed_seconds * 1e3:.1f} ms)", file=sys.stderr)
    _report_observability(args, s2s, results[0])
    return 0


def _cmd_mapping(args: argparse.Namespace) -> int:
    _scenario, s2s = _build(args)
    for line in s2s.mapping_lines():
        print(line)
    print(f"\n{len(s2s.attribute_repository)} entries, "
          f"coverage {s2s.mapping_coverage():.0%}", file=sys.stderr)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _scenario, s2s = _build(args)
    query = parse_s2sql(args.s2sql)
    plan = QueryPlanner(s2s.schema).plan(query)
    print(f"query:          {plan.query}")
    print(f"query class:    {plan.class_name}")
    print(f"output classes: {', '.join(plan.output_classes)}")
    print("required attributes:")
    for path in plan.required_attributes:
        print(f"  {path}")
    if plan.conditions:
        print("conditions:")
        for condition in plan.conditions:
            print(f"  {condition.path} {condition.operator} "
                  f"{condition.value!r} ({condition.property.range})")
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    """Show assisted-mapping suggestions for a fresh (unmapped) world."""
    from .core.mapping.suggest import MappingSuggester
    from .core.middleware import S2SMiddleware

    scenario = _scenario(args, args.seed)
    s2s = args.owned.enter_context(S2SMiddleware(watch_domain_ontology()))
    for org in scenario.organizations:
        s2s.register_source(scenario.connector(org))
    suggester = MappingSuggester(s2s.registrar)
    for org in scenario.organizations:
        source = s2s.source_repository.get(org.source_id)
        print(f"{org.source_id} ({org.source_type}):")
        suggestions = suggester.suggest_for_source(
            source, attributes=s2s.registrar.schema.attribute_paths())
        for suggestion in suggestions:
            print(f"  {suggestion}")
        if not suggestions:
            print("  (no candidates above threshold)")
    return 0


def _build_warm(args: argparse.Namespace):
    """A store-backed middleware, warm-loaded from ``--dir`` when that
    holds a snapshot; returns it and the directory (None without one)."""
    import os

    from .core.store.snapshot import MANIFEST_NAME

    _scenario, s2s = _build(args, store=True)
    directory = getattr(args, "dir", None)
    if directory and os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        loaded = s2s.store.load(directory)
        print(f"loaded {loaded} materialization(s) from {directory}",
              file=sys.stderr)
    return s2s, directory


def _cmd_store(args: argparse.Namespace) -> int:
    """``store refresh|status|export`` over the demo world's store.

    ``--dir`` makes the store persistent across invocations: an existing
    snapshot is warm-loaded before the subcommand runs, and ``refresh``
    saves the store back afterwards."""
    s2s, directory = _build_warm(args)
    if args.store_command == "status":
        rows = s2s.store_status()
        if not rows:
            print("(store empty — run 'store refresh' to materialize)")
        for row in rows:
            freshness = "fresh" if row["fresh"] else "stale"
            stale_note = (f", stale sources: "
                          f"{', '.join(row['stale_sources'])}"
                          if row["stale_sources"] else "")
            print(f"{row['class']} [{row['attributes']} attributes]: "
                  f"{row['entities']} entities from "
                  f"{len(row['sources'])} sources, {freshness} "
                  f"(age {row['age_seconds']:.1f}s, "
                  f"generation {row['generation']}{stale_note})")
        return 0

    if args.store_command == "export":
        sys.stdout.write(s2s.store.export(args.format))
        return 0

    # refresh
    if args.materialize or not s2s.store.materializations():
        query = args.materialize or "SELECT product"
        result = s2s.materialize(query)
        print(f"materialized: {result.summary()} "
              f"({result.elapsed_seconds * 1e3:.1f} ms)")
    else:
        for result in s2s.refresh_store(force=args.force):
            print(f"refreshed: {result.summary()} "
                  f"({result.elapsed_seconds * 1e3:.1f} ms)")
    if directory:
        manifest = s2s.store.save(directory)
        print(f"saved store to {manifest}", file=sys.stderr)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """``ingest run|status|dead-letter|requeue`` — the durable pipeline.

    The journal directory is the unit of recovery: rerunning ``ingest
    run`` with the same ``--journal`` resumes exactly the jobs a crashed
    or aborted run left unfinished.  ``--dir`` persists the store
    snapshot across invocations, same as the ``store`` command."""
    if args.ingest_command == "dead-letter":
        from .core.ingest import DeadLetterLedger
        entries = DeadLetterLedger(args.journal, fsync=False).entries()
        if not entries:
            print("(dead-letter ledger empty)")
        for entry in entries:
            job = entry.get("job", {})
            print(f"{job.get('job_id')}  source={job.get('source_id')} "
                  f"stage={job.get('stage')} attempts={job.get('attempts')}")
            print(f"  error: {entry.get('error')}")
        return 0

    s2s, directory = _build_warm(args)
    if args.ingest_command == "status":
        status = s2s.ingest_status(args.journal)
        jobs = status["jobs"] or {}
        tally = ", ".join(f"{count} {state}"
                          for state, count in sorted(jobs.items()))
        print(f"journal: {status['journal']}")
        print(f"jobs: {tally or '(none journaled)'}")
        print(f"dead letters: {status['dead_letter']}")
        for line in status["unfinished"]:
            print(f"  unfinished: {line}")
        return 0

    if args.ingest_command == "requeue":
        jobs = s2s.ingest_requeue(args.journal, args.job_ids or None)
        if not jobs:
            print("(nothing to requeue)")
        for job in jobs:
            print(f"requeued {job.job_id} (source={job.source_id})")
        return 0

    # run
    report = s2s.ingest(args.s2sql or "SELECT product",
                        journal_dir=args.journal,
                        n_workers=args.workers, pool=args.pool,
                        force=args.force, stop_after=args.stop_after)
    print(report.summary())
    for error in report.errors:
        print(f"  {error}", file=sys.stderr)
    if directory:
        manifest = s2s.store.save(directory)
        print(f"saved store to {manifest}", file=sys.stderr)
    return 1 if report.aborted else 0


def _parse_tenant_specs(spec: str) -> list[tuple[str, str | None]]:
    """``acme:s3cret,globex`` → [("acme", "s3cret"), ("globex", None)]."""
    tenants = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, token = part.partition(":")
        tenants.append((name, token or None))
    if not tenants:
        raise S2SError("--tenants must name at least one tenant")
    return tenants


def _parse_fleet_spec(spec: str):
    """Parse ``--fleet workers[:pool][:shared]`` → (workers, pool, shared).

    ``4`` — four thread workers per tenant; ``4:spawn`` — subprocess
    workers; ``4:shared`` / ``4:spawn:shared`` — one fleet serving every
    tenant."""
    workers_text, _, rest = spec.partition(":")
    try:
        workers = int(workers_text)
    except ValueError:
        raise S2SError(f"--fleet spec must start with a worker count, "
                       f"got {spec!r}") from None
    pool, shared = "thread", False
    for token in filter(None, rest.split(":")):
        if token in SHARDED_POOL_KINDS:
            pool = token
        elif token == "shared":
            shared = True
        else:
            raise S2SError(f"unknown --fleet token {token!r} in {spec!r} "
                           f"(expected thread, spawn or shared)")
    return workers, pool, shared


def _resolve_serve_fleet(args: argparse.Namespace):
    """The serve command's fleet shape: (FleetConfig, shared) or None."""
    if args.fleet is None:
        return None
    workers, pool, shared = _parse_fleet_spec(args.fleet)
    from .config import FleetConfig
    return _configured(FleetConfig, n_workers=workers, pool=pool,
                       tenant_quota=args.fleet_quota), shared


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` — expose demo worlds over the wire protocol.

    Each tenant gets its *own* scenario (seeded ``--seed + index``) and
    its own middleware: namespaces are isolated end to end.  Port 0
    binds an ephemeral port; the bound address is printed (and written
    to ``--port-file`` when given) so scripts can connect.  With
    ``--fleet N[:pool][:shared]`` queries run on sharded worker fleets —
    one per tenant, or (``:shared``) one fleet interleaving every
    tenant's shards under per-tenant quotas."""
    import time as _time

    from .config import ConcurrencyConfig, ServerConfig
    from .server import S2SServer, ServerThread, Tenant, TenantRegistry

    fleet_shape = _resolve_serve_fleet(args)
    if fleet_shape is not None:
        # --fleet implies the sharded engine, as query --workers does.
        concurrency = ConcurrencyConfig.sharded(fleet=fleet_shape[0])
    else:
        concurrency = ConcurrencyConfig(mode=args.concurrency or "serial")
    shared_fleet = None
    if fleet_shape is not None and fleet_shape[1]:
        from .clock import SystemClock
        from .core.cluster import QueryShardCoordinator
        from .obs import DEFAULT_REGISTRY
        shared_fleet = QueryShardCoordinator(clock=SystemClock(),
                                             fleet=fleet_shape[0],
                                             metrics=DEFAULT_REGISTRY)
    registry = TenantRegistry()
    for index, (name, token) in enumerate(_parse_tenant_specs(args.tenants)):
        middleware = _scenario(args, args.seed + index).build_middleware(
            store=args.store, concurrency=concurrency)
        if shared_fleet is not None:
            middleware.attach_fleet(shared_fleet, tenant=name)
        registry.add(Tenant(name, middleware, token=token, owned=True))
    config = _configured(ServerConfig, host=args.host, port=args.port,
                         max_inflight=args.max_inflight,
                         max_queue=args.max_queue)
    thread = ServerThread(S2SServer(registry, config=config))
    host, port = thread.start()
    fleet_note = ""
    if fleet_shape is not None:
        fleet_config, shared = fleet_shape
        scope = "shared fleet" if shared else "fleet per tenant"
        fleet_note = (f", {scope}: {fleet_config.n_workers} "
                      f"{fleet_config.pool} worker(s)")
    print(f"listening on {host}:{port} "
          f"({len(registry)} tenant(s): {', '.join(registry.names())}"
          f"{fleet_note})",
          flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        thread.stop()
        if shared_fleet is not None:
            shared_fleet.shutdown()
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``client`` — query a running server with :class:`S2SClient`."""
    import json as _json

    from .server import S2SClient

    modes = [bool(args.s2sql), bool(args.batch_file), bool(args.sparql),
             bool(args.explain), args.status, args.show_metrics]
    if sum(modes) != 1:
        print("error: provide exactly one of an S2SQL query, "
              "--batch-file, --sparql, --explain, --status or --metrics",
              file=sys.stderr)
        return 2
    merge_key = args.merge_key.split(",") if args.merge_key else None
    with _configured(S2SClient, args.host, args.port, tenant=args.tenant,
                     token=args.token) as client:
        if args.status:
            print(_json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.show_metrics:
            sys.stdout.write(client.metrics()["text"])
            return 0
        if args.explain:
            sys.stdout.write(client.explain(args.explain,
                                            merge_key=merge_key))
            return 0
        if args.sparql:
            answer = client.sparql(args.sparql)
            if isinstance(answer, bool):
                print("true" if answer else "false")
            else:
                print("\t".join(answer.variables))
                for row in answer.simple_rows():
                    print("\t".join(str(value) for value in row))
            return 0
        if args.batch_file:
            queries = _read_batch_file(args.batch_file)
            if not queries:
                print(f"error: no queries in {args.batch_file}",
                      file=sys.stderr)
                return 2
            for query, result in zip(queries,
                                     client.query_many(
                                         queries, merge_key=merge_key)):
                print(f"=== {query} ({len(result)} entities) ===")
                sys.stdout.write(result.render_text())
            return 0
        result = client.query(args.s2sql, merge_key=merge_key)
        sys.stdout.write(result.render_text())
        print(f"{len(result)} entities "
              f"(server {result.server_seconds * 1e3:.1f} ms, "
              f"round-trip {result.elapsed_seconds * 1e3:.1f} ms)",
              file=sys.stderr)
    return 0


def _cmd_ontology(args: argparse.Namespace) -> int:
    ontology = watch_domain_ontology()
    sys.stdout.write(serialize_ontology(
        ontology, "turtle" if args.format == "turtle" else "rdfxml",
        include_individuals=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S2S middleware demo CLI (Silva & Cardoso, ICDCS 2006 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run the demo integration")
    _add_scenario_arguments(demo)
    _add_observability_arguments(demo)
    demo.set_defaults(handler=_cmd_demo)

    query = commands.add_parser("query", help="run an S2SQL query")
    query.add_argument("s2sql", nargs="?", default=None,
                       help='e.g. \'SELECT product WHERE '
                            'brand = "Seiko"\'')
    query.add_argument("--batch-file", default=None,
                       help="file with one S2SQL query per line, executed "
                            "as one batch through a shared scan "
                            "(# comments and blank lines skipped)")
    query.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    query.add_argument("--merge-key", default="",
                       help="comma-separated attributes to dedup on, "
                            "e.g. brand,model")
    query.add_argument("--workers", dest="query_workers", type=int,
                       default=None, metavar="N",
                       help="shard the query across N fleet workers "
                            "(implies --concurrency sharded)")
    query.add_argument("--pool", dest="query_pool",
                       choices=SHARDED_POOL_KINDS, default=None,
                       help="fleet worker flavour: daemon threads "
                            "(default) or spawned subprocesses "
                            "(implies --concurrency sharded)")
    _add_scenario_arguments(query)
    _add_observability_arguments(query)
    query.set_defaults(handler=_cmd_query)

    mapping = commands.add_parser("mapping",
                                  help="print the mapping repository")
    _add_scenario_arguments(mapping)
    mapping.set_defaults(handler=_cmd_mapping)

    plan = commands.add_parser("plan", help="show a query's extraction plan")
    plan.add_argument("s2sql")
    _add_scenario_arguments(plan)
    plan.set_defaults(handler=_cmd_plan)

    suggest = commands.add_parser(
        "suggest", help="show assisted mapping suggestions")
    _add_scenario_arguments(suggest)
    suggest.set_defaults(handler=_cmd_suggest)

    store = commands.add_parser(
        "store", help="materialized semantic store operations")
    store_commands = store.add_subparsers(dest="store_command",
                                          required=True)
    refresh = store_commands.add_parser(
        "refresh", help="materialize or incrementally refresh the store")
    refresh.add_argument("--dir", default=None,
                         help="directory to load/save the store snapshot "
                              "(persistent across invocations)")
    refresh.add_argument("--force", action="store_true",
                         help="re-extract every source, ignoring "
                              "content fingerprints")
    refresh.add_argument("--materialize", default=None, metavar="S2SQL",
                         help="materialize this query's answer "
                              "(default: SELECT product when the store "
                              "is empty)")
    _add_scenario_arguments(refresh)
    refresh.set_defaults(handler=_cmd_store)
    status = store_commands.add_parser(
        "status", help="per-materialization freshness summary")
    status.add_argument("--dir", default=None,
                        help="directory holding a saved store snapshot")
    _add_scenario_arguments(status)
    status.set_defaults(handler=_cmd_store)
    export = store_commands.add_parser(
        "export", help="serialize the store graph to stdout")
    export.add_argument("--dir", default=None,
                        help="directory holding a saved store snapshot")
    export.add_argument("--format", choices=("turtle", "ntriples"),
                        default="turtle")
    _add_scenario_arguments(export)
    export.set_defaults(handler=_cmd_store)

    ingest = commands.add_parser(
        "ingest", help="durable staged ingest pipeline operations")
    ingest_commands = ingest.add_subparsers(dest="ingest_command",
                                            required=True)
    ingest_run = ingest_commands.add_parser(
        "run", help="run a supervised, crash-recoverable ingest")
    ingest_run.add_argument("s2sql", nargs="?", default=None,
                            help="query to materialize "
                                 "(default: SELECT product)")
    ingest_run.add_argument("--journal", required=True,
                            help="journal directory (the unit of crash "
                                 "recovery; reuse it to resume)")
    ingest_run.add_argument("--dir", default=None,
                            help="directory to load/save the store "
                                 "snapshot (persistent across runs)")
    ingest_run.add_argument("--workers", type=int, default=2,
                            help="shard worker count (default 2)")
    ingest_run.add_argument("--pool", choices=SHARDED_POOL_KINDS,
                            default="thread",
                            help="worker flavour: daemon threads "
                                 "(default) or spawned subprocesses")
    ingest_run.add_argument("--force", action="store_true",
                            help="re-ingest every source, ignoring "
                                 "content fingerprints")
    ingest_run.add_argument("--stop-after", type=int, default=None,
                            help="abandon the run after N completed jobs "
                                 "(crash simulation; exit code 1)")
    _add_scenario_arguments(ingest_run)
    ingest_run.set_defaults(handler=_cmd_ingest)
    ingest_status = ingest_commands.add_parser(
        "status", help="journal-level job counts and unfinished work")
    ingest_status.add_argument("--journal", required=True)
    _add_scenario_arguments(ingest_status)
    ingest_status.set_defaults(handler=_cmd_ingest)
    ingest_dead = ingest_commands.add_parser(
        "dead-letter", help="list quarantined jobs and their errors")
    ingest_dead.add_argument("--journal", required=True)
    ingest_dead.set_defaults(handler=_cmd_ingest)
    ingest_requeue = ingest_commands.add_parser(
        "requeue", help="release dead-letter jobs back to pending")
    ingest_requeue.add_argument("job_ids", nargs="*",
                                help="job ids to requeue (default: all)")
    ingest_requeue.add_argument("--journal", required=True)
    _add_scenario_arguments(ingest_requeue)
    ingest_requeue.set_defaults(handler=_cmd_ingest)

    serve = commands.add_parser(
        "serve", help="serve demo worlds over the wire protocol")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 0)")
    serve.add_argument("--tenants", default="default",
                       help="comma-separated tenant specs, each "
                            "name[:token] — every tenant gets its own "
                            "isolated world (default: one tenant "
                            "'default', no token)")
    serve.add_argument("--store", action="store_true",
                       help="give each tenant a materialized semantic "
                            "store (enables SPARQL frames)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent executions before requests "
                            "queue (default 8)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="queued requests before RETRY_AFTER "
                            "pushback (default 32)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain and exit "
                            "(default: until interrupted)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file once "
                            "listening (for scripts)")
    serve.add_argument("--fleet", default=None, metavar="N[:POOL][:shared]",
                       help="run queries on sharded worker fleets, e.g. "
                            "'4', '4:spawn' or '4:thread:shared'; 'shared' "
                            "interleaves every tenant on ONE fleet "
                            "(default: in-process execution)")
    serve.add_argument("--fleet-quota", type=int, default=None, metavar="N",
                       help="per-tenant cap on in-flight shard items on a "
                            "shared fleet; over-quota queries get "
                            "RETRY_AFTER pushback (default: no quota)")
    _add_scenario_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    client = commands.add_parser(
        "client", help="query a running server over the wire protocol")
    client.add_argument("s2sql", nargs="?", default=None,
                        help="S2SQL query to run remotely")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--tenant", default="default")
    client.add_argument("--token", default=None)
    client.add_argument("--batch-file", default=None,
                        help="file with one S2SQL query per line, "
                             "executed as one QUERY_MANY frame")
    client.add_argument("--sparql", default=None, metavar="SPARQL",
                        help="run a SPARQL query against the tenant's "
                             "store")
    client.add_argument("--explain", default=None, metavar="S2SQL",
                        help="render the server-side execution plan")
    client.add_argument("--status", action="store_true",
                        help="print the server + tenant status snapshot")
    client.add_argument("--metrics", dest="show_metrics",
                        action="store_true",
                        help="print the server's metrics rendering")
    client.add_argument("--merge-key", default="",
                        help="comma-separated attributes to dedup on")
    client.set_defaults(handler=_cmd_client)

    ontology = commands.add_parser("ontology",
                                   help="print the demo ontology as OWL")
    ontology.add_argument("--format", choices=("rdfxml", "turtle"),
                          default="rdfxml")
    ontology.set_defaults(handler=_cmd_ontology)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as args.owned:  # closes what a command builds
        try:
            return args.handler(args)
        except S2SError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
