"""Shared oracle infrastructure.

A test oracle consumes a prepared database state and runs *tests*: small
groups of queries whose results must satisfy a metamorphic relation.
Outcomes:

* ``ok``    -- relation held,
* ``bug``   -- relation violated (logic bug) or the engine raised an
  internal error / crash / hang (paper Table 1's other bug kinds),
* ``error`` -- a query raised an *expected* error; the test is discarded
  and counted as unsuccessful (paper Table 3's "unsuccessful queries"),
* ``skip``  -- the oracle could not build a test (e.g. empty join result,
  paper Section 3.2).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field

from repro.adapters.base import EngineAdapter, ExecResult, SchemaInfo
from repro.errors import EngineFailure, SqlError
from repro.minidb.values import SqlValue, row_sort_key
from repro.obs.phases import PhaseProfiler


@dataclass
class TestReport:
    """One bug-inducing test case.

    Reports cross process boundaries (fleet workers pickle them onto a
    result queue) and the bug corpus persists them as JSONL
    ``CorpusEntry`` rows, so they must stay plain data: strings, lists,
    and frozensets only.
    """

    oracle: str
    kind: str  # "logic" | "internal error" | "crash" | "hang"
    statements: list[str]
    description: str
    fired_faults: frozenset[str] = frozenset()
    #: ``(primary, secondary)`` backend names for differential reports;
    #: None for single-engine oracles.
    backend_pair: tuple[str, str] | None = None
    #: Plan-fingerprint signature of the test's main query (the triage
    #: clustering signal); differential reports carry both plans joined
    #: as ``"primary|secondary"``.  None when no main query ran.
    plan_fingerprint: str | None = None
    #: The ddmin-reduced witness, when the fleet shard that found the
    #: bug reduced it (None otherwise, or when it was irreducible).
    reduced_statements: list[str] | None = None


@dataclass
class TestOutcome:
    """Result of one oracle iteration."""

    status: str  # "ok" | "bug" | "error" | "skip"
    report: TestReport | None = None
    queries_ok: int = 0
    queries_err: int = 0
    fingerprint: str | None = None
    #: Injected faults that fired during the test, whatever its status
    #: (a guided policy's saturation signal needs to see a test re-hit
    #: an already-saturated fault even when no relation was violated).
    fired_faults: frozenset[str] = frozenset()


class OracleSkip(Exception):
    """Internal control flow: abandon the current test."""

    def __init__(self, counted_as_error: bool = False) -> None:
        super().__init__()
        self.counted_as_error = counted_as_error


class Oracle(abc.ABC):
    """Base class for all test oracles."""

    name = "oracle"
    #: The :class:`repro.obs.PhaseProfiler` for the ``generate`` and
    #: ``compare`` phases.  Oracles share this one, which nothing reads,
    #: until a campaign sets its own.  Wall-clock only: outcomes do not
    #: depend on it.
    profiler = PhaseProfiler()

    def __init__(self) -> None:
        self.adapter: EngineAdapter | None = None
        self.schema: SchemaInfo | None = None
        self.rng: random.Random = random.Random(0)
        self._q_ok = 0
        self._q_err = 0
        self._fired: set[str] = set()
        self._statements: list[str] = []
        self._fingerprint: str | None = None

    # -- lifecycle -------------------------------------------------------------

    def prepare(
        self, adapter: EngineAdapter, schema: SchemaInfo, rng: random.Random
    ) -> None:
        """Bind the oracle to a fresh database state."""
        self.adapter = adapter
        self.schema = schema
        self.rng = rng
        self.on_prepare()

    def on_prepare(self) -> None:
        """Hook for subclasses to rebuild their generators."""

    def run_one(self) -> TestOutcome:
        """Run a single test against the current state."""
        assert self.adapter is not None, "prepare() must be called first"
        self._q_ok = 0
        self._q_err = 0
        self._fired = set()
        self._statements = []
        self._fingerprint = None
        try:
            report = self.check_once()
        except OracleSkip as skip:
            return self._outcome("error" if skip.counted_as_error else "skip")
        except EngineFailure as exc:
            return self._bug(exc.kind, str(exc))
        if report is not None:
            report.fired_faults = frozenset(self._fired)
            report.statements = list(self._statements)
            if report.plan_fingerprint is None:
                # Oracles that know a richer signature (the differential
                # oracle joins both engines' plans) set it themselves.
                report.plan_fingerprint = self._fingerprint
            out = self._outcome("bug")
            out.report = report
            return out
        return self._outcome("ok")

    @abc.abstractmethod
    def check_once(self) -> TestReport | None:
        """Build and check one metamorphic test.  Return a report on
        violation, None when the relation held."""

    # -- helpers ----------------------------------------------------------------

    def _outcome(self, status: str) -> TestOutcome:
        return TestOutcome(
            status=status,
            queries_ok=self._q_ok,
            queries_err=self._q_err,
            fingerprint=self._fingerprint,
            fired_faults=frozenset(self._fired),
        )

    def _bug(self, kind: str, message: str) -> TestOutcome:
        out = self._outcome("bug")
        out.report = TestReport(
            oracle=self.name,
            kind=kind,
            statements=list(self._statements),
            description=message,
            fired_faults=frozenset(self._fired),
            plan_fingerprint=self._fingerprint,
        )
        return out

    def execute(
        self, sql: str, is_main_query: bool = False, ast=None
    ) -> ExecResult:
        """Run one query, with bookkeeping.

        Expected errors abandon the test (raising :class:`OracleSkip`);
        engine failures propagate to :meth:`run_one`, which files them
        as bug reports of their ``kind``.

        *ast*, when the caller just rendered *sql* from an AST, is
        offered to the adapter's parse memo (no-op without an attached
        :class:`repro.perf.EvalCache`); bookkeeping is identical either
        way.
        """
        assert self.adapter is not None
        self._statements.append(sql)
        if ast is not None:
            self.adapter.prime_parse(sql, ast)
        try:
            result = self.adapter.execute(sql)
        except SqlError:
            self._q_err += 1
            raise OracleSkip(counted_as_error=True) from None
        except EngineFailure:
            self._fired |= self.adapter.fired_fault_ids()
            raise
        self._q_ok += 1
        self._fired |= self.adapter.fired_fault_ids()
        if is_main_query and result.plan_fingerprint:
            self._fingerprint = result.plan_fingerprint
        return result

    def compare_rows(
        self,
        a: "list[tuple[SqlValue, ...]]",
        b: "list[tuple[SqlValue, ...]]",
    ) -> bool:
        """:func:`rows_equal`, scoped under the ``compare`` phase of the
        profiler.  The comparison itself is identical."""
        prof = self.profiler
        t0 = prof.begin()
        try:
            return rows_equal(a, b)
        finally:
            prof.end("compare", t0)

    def profiled(self, phase: str):
        """Context manager scoping a block under *phase* of the
        profiler.  Used by oracles to tag their generation work."""
        return self.profiler.phase(phase)

    def report(self, description: str) -> TestReport:
        return TestReport(
            oracle=self.name,
            kind="logic",
            statements=[],
            description=description,
        )


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------


def canonical_value(v: SqlValue) -> SqlValue:
    """Canonical form of one value: floats lose both tiny absolute noise
    (9 decimal places) and accumulation-order noise in large magnitudes
    (12 significant digits), mirroring the paper's handling of
    floating-point false alarms (Section 4.1).  Engines that accumulate
    an AVG over BIGINTs in a different order agree to 12 significant
    digits but not to the last ulp.  All other types pass through.
    """
    if isinstance(v, float):
        rounded = round(v, 9)
        if rounded == 0.0:  # collapse -0.0 and underflow to +0.0
            return 0.0
        return float(f"{rounded:.12g}")
    return v


def canonical(rows: list[tuple[SqlValue, ...]]) -> list[tuple[SqlValue, ...]]:
    """Order-insensitive, float-tolerant canonical form of a result set.

    The metamorphic relations compare result *multisets*: generated
    queries carry no ORDER BY, so row order is not part of the contract.
    Idempotent: ``canonical(canonical(x)) == canonical(x)``.
    """
    normalized = [tuple(canonical_value(v) for v in row) for row in rows]
    return sorted(normalized, key=row_sort_key)


def rows_equal(a: list[tuple[SqlValue, ...]], b: list[tuple[SqlValue, ...]]) -> bool:
    """Multiset equality of two result sets."""
    if len(a) != len(b):
        return False
    return canonical(a) == canonical(b)
