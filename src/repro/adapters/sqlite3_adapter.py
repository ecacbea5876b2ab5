"""Adapter for the real SQLite via the Python stdlib ``sqlite3`` module.

This demonstrates that the reproduction's oracles run unmodified against
a production DBMS (the paper's primary test target).  A released SQLite
is expected to yield no discrepancies -- the examples use it to show
applicability, not to claim new bugs.
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
        self._cache = None
        self._cache_ns = self.name
        self._state_token = ""
        self._executed_any = False

    def attach_eval_cache(self, cache, namespace: str = "") -> None:
        """Memoize read-only statement results keyed by the state-token
        hash chain.  A released SQLite evaluates the generated (fully
        deterministic) dialect subset reproducibly, so replaying a
        recorded result -- including recorded ``sqlite3.Error`` messages
        -- is indistinguishable from re-executing the query."""
        from repro.perf.cache import INITIAL_STATE_TOKEN

        self._cache = cache
        self._cache_ns = namespace or self.name
        self._state_token = (
            INITIAL_STATE_TOKEN
            if not self._executed_any
            else cache.unique_token()
        )

    def execute(self, sql: str) -> ExecResult:
        prof = self._profiler
        if prof is None:
            return self._execute_maybe_cached(sql)
        # SQLite parses internally, so the whole round trip counts as
        # the execute phase.
        t0 = prof.begin()
        try:
            return self._execute_maybe_cached(sql)
        finally:
            prof.end("execute", t0)

    def _execute_maybe_cached(self, sql: str) -> ExecResult:
        row_returning = is_row_returning(sql)
        cache = self._cache
        if cache is None:
            return self._execute(sql, row_returning)
        from repro.perf.cache import CachedStatement, advance_state_token

        if not row_returning:
            self._state_token = advance_state_token(self._state_token, sql)
            return self._execute(sql, row_returning)
        key = (self._cache_ns, self._state_token, sql)
        entry = cache.lookup_statement(key)
        if entry is not None:
            entry.raise_error()
            return ExecResult(
                columns=list(entry.columns),
                rows=list(entry.rows),
                plan_fingerprint=entry.plan_fingerprint,
                rows_affected=entry.rows_affected,
            )
        try:
            result = self._execute(sql, row_returning)
        except SqlError as exc:
            cache.store_statement(
                key,
                CachedStatement(error_type=type(exc), error_message=str(exc)),
            )
            raise
        cache.store_statement(
            key,
            CachedStatement(
                columns=tuple(result.columns),
                rows=tuple(result.rows),
                plan_fingerprint=result.plan_fingerprint,
                rows_affected=result.rows_affected,
            ),
        )
        return result

    def _execute(self, sql: str, row_returning: bool | None = None) -> ExecResult:
        fingerprint = None
        self._executed_any = True
        try:
            # Robust statement-kind detection: leading comments,
            # parenthesized selects, VALUES clauses, and lowercase
            # keywords all still yield a plan fingerprint.  The caller
            # usually classified the statement already and passes the
            # verdict down.
            if is_row_returning(sql) if row_returning is None else row_returning:
                fingerprint = self._explain(sql)
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
        self._executed_any = False
        if self._cache is not None:
            self.attach_eval_cache(self._cache, self._cache_ns)
