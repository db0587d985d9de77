"""SQL dialect: lexer, AST, parser and two executors.

``execute`` is the row-at-a-time oracle (and the one path for INSERT and
DDL); ``execute_columnar`` runs every SELECT on the vectorized engine
over column-major storage (returns the result plus a :class:`PlanReport`
of the executed operator chain).
"""

from .parser import parse_sql
from .executor import execute
from .columnar import BATCH_SIZE, PlanReport, execute_columnar

__all__ = ["parse_sql", "execute", "execute_columnar", "PlanReport",
           "BATCH_SIZE"]
