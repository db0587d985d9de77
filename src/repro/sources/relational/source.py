"""The database connector implementing the DataSource protocol.

Carries the connection fields the paper lists for databases — "location,
login, password, and driver type" (section 2.3.2) — and runs SQL
extraction rules against the attached in-memory engine.  A source whose
credentials do not match its database raises on connect, modelling an
unreachable remote system (used by failure-injection tests).
"""

from __future__ import annotations

import threading

from ...errors import ExtractionError, S2SError
from ...obs.metrics import DEFAULT_REGISTRY, MetricsRegistry
from ..base import ConnectionInfo, DataSource, stable_digest
from .database import Database


class RelationalDataSource(DataSource):
    """A registered database behind SQL extraction rules.

    ``engine`` overrides the database's SELECT engine for rules run
    through this source (``None`` inherits the database's knob).  Each
    columnar execution feeds the ``sql_batches_total`` /
    ``sql_rows_scanned_total`` counters and leaves a plan digest that
    the extraction manager attaches to the rule's span (see
    :meth:`consume_execution_detail`).  The digest is held per thread:
    clients sharing a source run their rules on different threads, and
    each must read back its own statement's plan.
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
        self._compiled: dict[str, object] = {}
        self._details: dict[int, dict[str, object]] = {}  # by thread id

    def connect(self) -> None:
        """Authenticate against the expected credentials."""
        if self.password != self._expected_password:
            raise S2SError(
                f"authentication failed for database source "
                f"{self.source_id!r} (login {self.login!r})")
        super().connect()

    def execute_rule(self, rule: str) -> list[str]:
        """Run a SQL extraction rule; each row's single column is a record.

        Multi-column results are an authoring error in the mapping (one
        extraction rule feeds exactly one attribute).
        """
        if not self.connected:
            self.connect()
        statement = self._compiled.get(rule)
        if statement is None:
            from .sql.parser import parse_sql
            statement = parse_sql(rule)
            self._compiled[rule] = statement
        result, plan = self.database.execute_with_plan(statement,
                                                       engine=self.engine)
        self._record_plan(plan)
        if len(result.columns) != 1:
            raise ExtractionError(
                f"SQL extraction rule must select exactly one column, got "
                f"{result.columns}", source_id=self.source_id)
        return ["" if value is None else str(value)
                for value in result.scalars()]

    def explain_sql(self, sql: str) -> str:
        """Operator-plan rendering for one statement under this
        source's engine (see :meth:`Database.explain`)."""
        return self.database.explain(sql, engine=self.engine)

    def _record_plan(self, plan) -> None:
        if plan is None:
            self._details.pop(threading.get_ident(), None)
            return
        metrics = DEFAULT_REGISTRY if self.metrics is None else self.metrics
        metrics.counter(
            "sql_batches_total",
            "scan batches processed by the columnar SQL engine").inc(
                plan.batches, source=self.source_id)
        metrics.counter(
            "sql_rows_scanned_total",
            "rows scanned by the columnar SQL engine").inc(
                plan.rows_scanned, source=self.source_id)
        self._details[threading.get_ident()] = {
            "sql_plan": plan.summary(),
            "sql_rows_scanned": plan.rows_scanned,
            "sql_batches": plan.batches,
        }

    def consume_execution_detail(self) -> dict[str, object] | None:
        """One-shot plan digest of the calling thread's most recent rule
        execution (the extraction manager annotates the attempt span
        with it)."""
        return self._details.pop(threading.get_ident(), None)

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
