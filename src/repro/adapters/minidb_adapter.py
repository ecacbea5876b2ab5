"""Adapter exposing a MiniDB engine through the black-box protocol.

An attached :class:`repro.perf.EvalCache` lends the adapter its parse
memo, primed by the oracles and the state generator with parser-normal
ASTs; that is all a campaign or triage replay attaches.  ddmin's
candidate adapters also attach its statement memo
(:meth:`MiniDBAdapter.attach_replay_memo`): read-only statement outcomes
keyed by a state-token hash chain, whose replays restore the fired
fault ids and re-raise recorded errors.  The engine underneath runs the
same code either way.
"""

from __future__ import annotations

from repro.adapters.base import (
    ColumnInfo,
    EngineAdapter,
    ExecResult,
    SchemaInfo,
    TableInfo,
)
from repro.errors import EngineFailure, SqlError
from repro.minidb import ast_nodes as A
from repro.minidb.engine import Engine
from repro.minidb.parser import parse_statement
from repro.minidb.values import TypingMode


class MiniDBAdapter(EngineAdapter):
    """Wraps an :class:`~repro.minidb.engine.Engine` instance."""

    def __init__(self, engine: Engine | None = None) -> None:
        self.engine = engine or Engine()
        self.name = f"minidb[{self.engine.profile.name}]"
        self.supports_any_all = self.engine.profile.supports_any_all
        self.strict_typing = self.engine.mode is TypingMode.STRICT
        self._cache = None
        #: Hash-chain token of the writes since the last reset while a
        #: replay memo is attached, else None.
        self._state_token: str | None = None

    # -- perf layer ----------------------------------------------------------

    def attach_eval_cache(self, cache) -> None:
        self._cache = cache
        self._state_token = None

    def attach_replay_memo(self, cache) -> None:
        """Attach *cache* with its statement memo too, to a fresh
        adapter.  Its hash chain starts at ``init``, so adapters of one
        configuration that replay the same write prefix share the
        outcomes of the SELECTs after it: ddmin's candidates."""
        from repro.perf.cache import INITIAL_STATE_TOKEN

        self._cache = cache
        self._state_token = INITIAL_STATE_TOKEN

    def prime_parse(self, sql: str, ast) -> None:
        # Membership check first: the normalization walk would be
        # discarded anyway for statements already memoized (first
        # writer wins), and repeats are the common case by design.
        if self._cache is not None and not self._cache.has_parse(sql):
            from repro.perf.normalize import parser_normal

            self._cache.prime_parse(sql, parser_normal(ast))

    # -- execution -----------------------------------------------------------

    @staticmethod
    def _to_exec_result(result) -> ExecResult:
        return ExecResult(
            columns=result.columns,
            rows=result.rows,
            plan_fingerprint=result.plan_fingerprint,
            rows_affected=result.rows_affected,
        )

    def execute(self, sql: str) -> ExecResult:
        cache = self._cache
        prof = self._profiler
        # Parse and execute are timed apart.  With a cache the memo
        # lookup *is* the parse phase (hits make it shrink); everything
        # downstream counts as execution.  Parse errors propagate
        # uncached.
        t0 = prof.begin()
        try:
            stmt = parse_statement(sql) if cache is None else cache.parse(sql)
        finally:
            prof.end("parse", t0)
        t0 = prof.begin()
        try:
            if self._state_token is None:
                return self._to_exec_result(self.engine.execute_ast(stmt))
            return self._execute_replayed(sql, cache, stmt)
        finally:
            prof.end("execute", t0)

    def _execute_replayed(self, sql: str, cache, stmt) -> ExecResult:
        from repro.perf.cache import CachedStatement, advance_state_token

        engine = self.engine
        if not isinstance(stmt, A.Select):
            # State-changing statement: extend the hash chain before
            # executing (conservative on failure -- a lost hit, never a
            # stale one) and never consult the result memo.
            self._state_token = advance_state_token(self._state_token, sql)
            return self._to_exec_result(engine.execute_ast(stmt))

        key = (self._state_token, sql)
        entry = cache.lookup_statement(key)
        if entry is not None:
            # Replay what the still-fails check observes -- the fired
            # fault ids -- then return (or raise) the recorded outcome.
            engine.faults.reset_fired()
            engine.faults.fired |= entry.fired
            entry.raise_error()
            return ExecResult(
                columns=list(entry.columns),
                rows=list(entry.rows),
                plan_fingerprint=entry.plan_fingerprint,
                rows_affected=entry.rows_affected,
            )

        try:
            result = engine.execute_ast(stmt)
        except (SqlError, EngineFailure) as exc:
            cache.store_statement(
                key,
                CachedStatement(
                    fired=frozenset(engine.faults.fired),
                    error_type=type(exc),
                    error_message=str(exc),
                ),
            )
            raise
        cache.store_statement(
            key,
            CachedStatement(
                columns=tuple(result.columns),
                rows=tuple(result.rows),
                plan_fingerprint=result.plan_fingerprint,
                rows_affected=result.rows_affected,
                fired=frozenset(engine.faults.fired),
            ),
        )
        return self._to_exec_result(result)

    def schema(self) -> SchemaInfo:
        info = SchemaInfo()
        db = self.engine.database
        for table in db.tables.values():
            info.tables.append(
                TableInfo(
                    table.name,
                    tuple(ColumnInfo(c.name, c.declared_type) for c in table.columns),
                    kind="table",
                )
            )
        for view in db.views.values():
            columns = view.columns or tuple(
                item.alias or f"c{i}" for i, item in enumerate(view.query.items)
            )
            info.tables.append(
                TableInfo(
                    view.name,
                    tuple(ColumnInfo(c, None) for c in columns),
                    kind="view",
                )
            )
        info.indexes = [ix.name for ix in db.indexes.values()]
        return info

    def reset(self) -> None:
        profile = self.engine.profile
        faults = self.engine.faults.faults
        self.engine = Engine(profile=profile, faults=faults)
        if self._state_token is not None:
            self.attach_replay_memo(self._cache)

    def fired_fault_ids(self) -> frozenset[str]:
        return frozenset(self.engine.faults.fired)
