"""The differential pair adapter: one logical database, two engines.

:class:`DifferentialAdapter` implements the ordinary
:class:`~repro.adapters.base.EngineAdapter` protocol, so the existing
state generator, campaign driver, and fleet all run unmodified -- every
statement they issue is *teed* to a primary (the engine under test) and
a secondary (the trusted reference).  Row-returning statements have
their canonical result multisets compared on the spot; a difference
raises :class:`~repro.errors.DifferentialMismatch` carrying both plan
fingerprints (the NoREC-style cross-engine oracle, Rigger & Su 2020).

State synchronization invariants:

* the primary executes first; if it rejects a statement the secondary
  never sees it (MiniDB statements are atomic, so a rejected statement
  mutated nothing);
* a data statement that succeeds on the primary but fails on the
  secondary *poisons* the pair -- every later statement raises
  :class:`~repro.errors.StateDesyncError` until ``reset()`` -- so a
  campaign simply regenerates the state instead of diffing two
  databases that no longer hold the same rows;
* a failed ``CREATE INDEX`` on the secondary is tolerated one-sided:
  indexes change plans, not results, and one-sided indexes are exactly
  what drives the two engines through *different* plans for the same
  query -- the point of differential testing.
"""

from __future__ import annotations

from repro.adapters.base import EngineAdapter, ExecResult, SchemaInfo
from repro.adapters.sql_text import (
    KIND_INDEX,
    KIND_SELECT,
    statement_kind,
)
from repro.differential.compat import CompatPolicy, CompatSkip
from repro.errors import (
    DifferentialMismatch,
    EngineFailure,
    SqlError,
    StateDesyncError,
)
from repro.oracles_base import canonical


class DifferentialAdapter(EngineAdapter):
    """Tee adapter executing every statement on two backends."""

    def __init__(
        self,
        primary: EngineAdapter,
        secondary: EngineAdapter,
        policy: CompatPolicy,
    ) -> None:
        self.primary = primary
        self.secondary = secondary
        self.policy = policy
        self.name = f"diff[{primary.name}|{secondary.name}]"
        self.supports_any_all = self.policy.supports_any_all
        # Generation-side discipline: portable queries are always typed.
        self.strict_typing = self.policy.strict_typing
        self.portable_generation = True
        #: Reason the pair is desynchronized, None while healthy.
        self._desync: str | None = None
        #: Statements that ran on the primary only (skipped or failed
        #: plan-only statements on the secondary).
        self.secondary_skips = 0

    # -- plumbing the campaign driver relies on --------------------------------

    @property
    def engine(self):
        """The primary's engine, when simulated (coverage accounting)."""
        return getattr(self.primary, "engine", None)

    def fired_fault_ids(self) -> frozenset[str]:
        return self.primary.fired_fault_ids()

    @property
    def backend_names(self) -> tuple[str, str]:
        return self.policy.backend_names()

    def attach_eval_cache(self, cache) -> None:
        """One parse memo serves both backends."""
        self.primary.attach_eval_cache(cache)
        self.secondary.attach_eval_cache(cache)

    def attach_profiler(self, profiler) -> None:
        """Both backends report into the same profiler: the pair's
        parse/execute time is the sum over the two engines (its own
        result comparison is part of the execute phase)."""
        self._profiler = profiler
        self.primary.attach_profiler(profiler)
        self.secondary.attach_profiler(profiler)

    def prime_parse(self, sql: str, ast) -> None:
        self.primary.prime_parse(sql, ast)
        self.secondary.prime_parse(sql, ast)

    # -- EngineAdapter protocol --------------------------------------------------

    def execute(self, sql: str) -> ExecResult:
        if self._desync is not None:
            raise StateDesyncError(self._desync)
        kind = statement_kind(sql)

        try:
            primary_sql = self.policy.translate(sql, self.policy.primary)
        except CompatSkip as skip:
            raise SqlError(f"differential skip: {skip}") from None
        try:
            secondary_sql: str | None = self.policy.translate(
                sql, self.policy.secondary
            )
        except CompatSkip as skip:
            if kind != KIND_INDEX:
                raise SqlError(f"differential skip: {skip}") from None
            secondary_sql = None  # plan-only: run one-sided

        try:
            result_a = self.primary.execute(primary_sql)
        except EngineFailure:
            if kind != KIND_SELECT:
                # An injected failure mid-write may have left partial
                # effects on the primary only.
                self._desync = (
                    f"engine failure during non-query statement: {sql!r}"
                )
            raise

        result_b: ExecResult | None = None
        if secondary_sql is None:
            self.secondary_skips += 1
        else:
            try:
                result_b = self.secondary.execute(secondary_sql)
            except SqlError as exc:
                if kind == KIND_INDEX:
                    # Plans may now differ between the backends -- that
                    # is a feature, not a desync.
                    self.secondary_skips += 1
                elif kind == KIND_SELECT:
                    # No side effects on either backend; an error
                    # asymmetry on a query is an expected-error skip,
                    # not a bug (SQLancer treats it the same way).
                    raise SqlError(
                        f"secondary {self.policy.secondary.name} rejected "
                        f"query the primary accepted: {exc}"
                    ) from exc
                else:
                    self._desync = (
                        f"statement succeeded on {self.policy.primary.name} "
                        f"but failed on {self.policy.secondary.name} "
                        f"({exc}); states differ until reset: {sql!r}"
                    )
                    raise StateDesyncError(self._desync) from exc

        if result_b is not None and kind == KIND_SELECT:
            self._compare(sql, result_a, result_b)
        return result_a

    def _compare(
        self, sql: str, result_a: ExecResult, result_b: ExecResult
    ) -> None:
        rows_a = canonical(result_a.rows)
        rows_b = canonical(result_b.rows)
        if rows_a == rows_b:
            return
        a_name, b_name = self.backend_names
        raise DifferentialMismatch(
            f"result sets diverge: {a_name} returned {len(rows_a)} row(s), "
            f"{b_name} returned {len(rows_b)} row(s) for the same query "
            f"[plan {a_name}: {result_a.plan_fingerprint!r} | "
            f"plan {b_name}: {result_b.plan_fingerprint!r}]",
            fingerprints=(
                result_a.plan_fingerprint,
                result_b.plan_fingerprint,
            ),
        )

    def schema(self) -> SchemaInfo:
        """The primary's schema drives generation (the secondary holds
        the same objects by construction)."""
        return self.primary.schema()

    def reset(self) -> None:
        self.primary.reset()
        self.secondary.reset()
        self._desync = None
