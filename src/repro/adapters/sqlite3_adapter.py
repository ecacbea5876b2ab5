"""Adapter for the real SQLite via the Python stdlib ``sqlite3`` module.

This demonstrates that the reproduction's oracles run unmodified against
a production DBMS (the paper's primary test target).  A released SQLite
is expected to yield no discrepancies -- the examples use it to show
applicability, not to claim new bugs.

The adapter does not cache: it inherits the no-op
:meth:`~repro.adapters.base.EngineAdapter.attach_eval_cache`.  SQLite
parses its own SQL, and the statement memo serves only ddmin, which
never reduces a real backend's reports.
"""

from __future__ import annotations

import re
import sqlite3

from repro.adapters.base import (
    ColumnInfo,
    EngineAdapter,
    ExecResult,
    SchemaInfo,
    TableInfo,
)
from repro.adapters.sql_text import is_row_returning
from repro.errors import SqlError
from repro.minidb.catalog import resolve_type_name


class Sqlite3Adapter(EngineAdapter):
    """In-memory SQLite database behind the adapter protocol."""

    name = "sqlite3"
    supports_any_all = False
    strict_typing = False

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")

    def execute(self, sql: str) -> ExecResult:
        # SQLite parses internally, so the whole round trip counts as
        # the execute phase.
        prof = self._profiler
        t0 = prof.begin()
        try:
            # Robust statement-kind detection: leading comments,
            # parenthesized selects, VALUES clauses, and lowercase
            # keywords all still yield a plan fingerprint.
            fingerprint = self._explain(sql) if is_row_returning(sql) else None
            cursor = self._conn.execute(sql)
            rows = [tuple(self._convert(v) for v in row) for row in cursor.fetchall()]
            columns = (
                [d[0] for d in cursor.description] if cursor.description else []
            )
            self._conn.commit()
            return ExecResult(
                columns=columns,
                rows=rows,
                plan_fingerprint=fingerprint,
                rows_affected=max(cursor.rowcount, 0),
            )
        except sqlite3.Error as exc:  # expected-error surface of a real DBMS
            raise SqlError(str(exc)) from exc
        finally:
            prof.end("execute", t0)

    def _explain(self, sql: str) -> str | None:
        try:
            plan_rows = self._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
        except sqlite3.Error:
            return None
        details = [str(r[-1]) for r in plan_rows]
        # Strip literals so the fingerprint captures plan shape only.
        cleaned = [re.sub(r"[0-9]+", "#", d) for d in details]
        return ";".join(cleaned)

    @staticmethod
    def _convert(value):
        if isinstance(value, bytes):
            return value.decode("utf-8", "replace")
        return value

    def schema(self) -> SchemaInfo:
        info = SchemaInfo()
        objects = self._conn.execute(
            "SELECT name, type FROM sqlite_master WHERE type IN ('table', 'view') "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        for name, kind in objects:
            cols = self._conn.execute(f"PRAGMA table_info({name})").fetchall()
            columns = tuple(
                ColumnInfo(c[1], resolve_type_name(c[2] or None)) for c in cols
            )
            info.tables.append(TableInfo(name, columns, kind=kind))
        indexes = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        info.indexes = [r[0] for r in indexes]
        return info

    def reset(self) -> None:
        self._conn.close()
        self._conn = sqlite3.connect(":memory:")
