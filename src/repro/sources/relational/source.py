"""The database connector implementing the DataSource protocol.

Carries the connection fields the paper lists for databases — "location,
login, password, and driver type" (section 2.3.2) — and runs SQL
extraction rules against the attached in-memory engine.  A source whose
credentials do not match its database raises on connect, modelling an
unreachable remote system (used by failure-injection tests).
"""

from __future__ import annotations

from ...errors import ExtractionError, S2SError
from ...obs.metrics import DEFAULT_REGISTRY, MetricsRegistry
from ..base import (ConnectionInfo, DataSource, ExecutionDetails, RuleCache,
                    stable_digest)
from .database import Database
from .sql.ast import Select
from .sql.columnar import scan_key
from .sql.parser import parse_sql


class RelationalDataSource(DataSource):
    """A registered database behind SQL extraction rules.

    ``engine`` overrides the database's SELECT engine for rules run
    through this source (``None`` inherits the database's knob).  Each
    columnar execution feeds the ``sql_batches_total`` /
    ``sql_rows_scanned_total`` counters and leaves a plan digest that
    the extraction manager attaches to the rule's span (see
    :meth:`consume_execution_detail`).
    """

    source_type = "database"

    def __init__(self, source_id: str, database: Database, *,
                 location: str = "localhost", login: str = "s2s",
                 password: str = "s2s", driver: str = "repro-mem",
                 expected_password: str | None = None,
                 engine: str | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(source_id)
        self.database = database
        self.location = location
        self.login = login
        self.password = password
        self.driver = driver
        self.engine = engine
        # None means DEFAULT_REGISTRY, resolved at use time: the shard
        # ingest workers pickle sources, and a registry holds a lock.
        self.metrics = metrics
        self._expected_password = (expected_password if expected_password
                                   is not None else password)
        self._compiled = RuleCache()
        self._details = ExecutionDetails()

    def connect(self) -> None:
        """Authenticate against the expected credentials."""
        if self.password != self._expected_password:
            raise S2SError(
                f"authentication failed for database source "
                f"{self.source_id!r} (login {self.login!r})")
        super().connect()

    @staticmethod
    def _plan(rules: tuple[str, ...]) -> list[tuple[object, int]]:
        """``(statement, scan number)`` per rule: SELECTs with equal
        numbers read the tables alike and share one scan."""
        statements = [parse_sql(rule) for rule in rules]
        if len(rules) > 1 and not all(isinstance(statement, Select)
                                      for statement in statements):
            # Refused before anything runs: a caller that falls back to
            # one rule at a time must not find the write already made.
            raise ExtractionError(
                "only SELECT rules run as a batch; run a statement that "
                "writes on its own")
        numbers: dict[str | None, int] = {}
        return [(statement, numbers.setdefault(
            scan_key(statement) if isinstance(statement, Select) else None,
            len(numbers))) for statement in statements]

    def execute_rules(self, rules: list[str]) -> list[list[str]]:
        """Run a rule set; ``result[i]`` is exactly
        ``execute_rule(rules[i])``.

        SELECTs with equal ``(table, joins, where)`` scan, join and
        filter once, with one plan report, and each take their column off
        the shared frame (eight single-column rules over one filtered
        table evaluate the predicate once, not eight times).  Each rule
        still leaves its own plan digest; a sharing rule's says
        ``scan(shared)`` and counts no scanned rows."""
        if not self.connected:
            self.connect()
        self._details.record([])  # a call that raises leaves no digest
        plan = self._compiled.get(tuple(rules), self._plan)
        runs = self.database.execute_batch(plan, engine=self.engine)
        columns: list[list[str]] = []
        for run in runs:
            if len(run.names) != 1:
                raise ExtractionError(
                    f"SQL extraction rule must select exactly one column, "
                    f"got {run.names}", source_id=self.source_id)
            columns.append(["" if value is None else str(value)
                            for value in run.values])
        # Counted and digested only once the whole set has run: a batch
        # that raises leaves nothing behind for its per-rule re-run.
        metrics = DEFAULT_REGISTRY if self.metrics is None else self.metrics
        digests = [run.digest() for run in runs]
        for digest, run, (_statement, scan) in zip(digests, runs, plan):
            if digest is not None and len(rules) > 1:
                digest["scan"] = scan
            if digest is not None and not run.shared:  # once per scan
                metrics.counter(
                    "sql_batches_total",
                    "scan batches processed by the columnar SQL engine").inc(
                        digest["sql_batches"], source=self.source_id)
                metrics.counter(
                    "sql_rows_scanned_total",
                    "rows scanned by the columnar SQL engine").inc(
                        digest["sql_rows_scanned"], source=self.source_id)
        self._details.record(digests)
        return columns

    def execute_rule(self, rule: str) -> list[str]:
        """Run a SQL extraction rule; each row's single column is a record.

        Multi-column results are an authoring error in the mapping (one
        extraction rule feeds exactly one attribute).
        """
        return self.execute_rules([rule])[0]

    def explain_sql(self, sql: str) -> str:
        """Operator-plan rendering for one statement under this
        source's engine (see :meth:`Database.explain`)."""
        return self.database.explain(sql, engine=self.engine)

    def consume_execution_detail(self) -> dict[str, object] | None:
        """Next one-shot plan digest of the calling thread's most recent
        execution, in rule order (the extraction manager annotates each
        rule's attempt span with its own; in a batch ``scan`` numbers
        the scan the rule shared)."""
        return self._details.consume()

    def content_fingerprint(self) -> str | None:
        """Hash of the whole catalog: table schemas plus row data."""
        parts: list[str] = []
        for table_name in self.database.table_names():
            table = self.database.require_table(table_name)
            parts.append(table_name)
            parts.extend(f"{column.name}:{column.type}"
                         for column in table.columns)
            parts.extend(repr(row) for row in table.rows)
        return stable_digest(*parts)

    def connection_info(self) -> ConnectionInfo:
        """The paper's database fields: location/login/password/driver."""
        return ConnectionInfo(self.source_type, {
            "location": self.location,
            "login": self.login,
            "password": self.password,
            "driver": self.driver,
            "database": self.database.name,
        })
