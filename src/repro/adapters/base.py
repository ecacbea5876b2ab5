"""Adapter protocol and schema introspection types."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.minidb.values import SqlType, SqlValue
from repro.obs.phases import PhaseProfiler


@dataclass(frozen=True)
class ColumnInfo:
    """One column as seen by the generators."""

    name: str
    sql_type: SqlType | None = None  # None = dynamically typed


@dataclass(frozen=True)
class TableInfo:
    """One relation (base table or view) available to generated queries."""

    name: str
    columns: tuple[ColumnInfo, ...]
    kind: str = "table"  # "table" | "view"


@dataclass
class SchemaInfo:
    """Snapshot of the schema, consumed by the random generators."""

    tables: list[TableInfo] = field(default_factory=list)
    indexes: list[str] = field(default_factory=list)

    @property
    def base_tables(self) -> list[TableInfo]:
        return [t for t in self.tables if t.kind == "table"]

    def table(self, name: str) -> TableInfo:
        for t in self.tables:
            if t.name.lower() == name.lower():
                return t
        raise KeyError(name)


@dataclass
class ExecResult:
    """Result of executing one statement through an adapter."""

    columns: list[str]
    rows: list[tuple[SqlValue, ...]]
    plan_fingerprint: str | None = None
    rows_affected: int = 0


class EngineAdapter(abc.ABC):
    """Black-box SQL interface to a DBMS under test.

    Implementations raise :class:`repro.errors.SqlError` subclasses for
    expected errors (counted as "unsuccessful queries", paper Table 3)
    and :class:`repro.errors.EngineFailure` subclasses, whose ``kind``
    is the report kind, for the bug categories of Table 1.
    """

    name: str = "adapter"
    #: Dialect knobs the oracles consult (paper Section 3.3).
    supports_any_all: bool = True
    strict_typing: bool = False
    #: Generators must restrict themselves to constructs whose semantics
    #: coincide across engines (set by differential pair adapters, which
    #: compare results between two backends).
    portable_generation: bool = False
    #: The :class:`repro.obs.PhaseProfiler` that times ``parse`` and
    #: ``execute``.  Adapters share this one, which nothing reads, until
    #: a campaign attaches its own; so replays (ddmin, triage) never
    #: reach a campaign's phase totals.  Wall-clock only.
    _profiler = PhaseProfiler()

    @abc.abstractmethod
    def execute(self, sql: str) -> ExecResult:
        """Execute one SQL statement."""

    @abc.abstractmethod
    def schema(self) -> SchemaInfo:
        """Introspect the current schema."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Drop all user objects, returning to an empty database."""

    def fired_fault_ids(self) -> frozenset[str]:
        """Ground-truth fault attribution for the last statement
        (simulated engines only; real DBMSs return an empty set)."""
        return frozenset()

    def attach_eval_cache(self, cache) -> None:
        """Attach the parse memo of a worker-local
        :class:`repro.perf.EvalCache`.

        Only the MiniDB adapter caches; real-DBMS adapters ignore the
        call.  Parsing is pure, so any number of adapters may share one
        cache.
        """

    def attach_profiler(self, profiler) -> None:
        """Attach the :class:`repro.obs.PhaseProfiler` that scopes the
        ``parse`` and ``execute`` hot-path phases.  Purely observational
        -- results, errors, and side effects do not depend on it; only
        the obs layer sees the timings."""
        self._profiler = profiler

    def prime_parse(self, sql: str, ast) -> None:
        """Offer the parser-normal AST of *sql* to the parse memo.

        Called by the oracles and the state generator right after
        rendering *ast* to *sql*, so a cached adapter can skip
        re-parsing text it is about to receive.  No-op without an
        attached cache or for adapters that do not parse."""
