"""The cross-backend differential oracle.

Where CODDTest compares a query against its constant-folded twin on
*one* engine, the differential oracle compares the *same* query across
*two* engines (MiniDB profile vs. real SQLite) -- the classic way to
widen the oracle surface beyond planted ground truth (Rigger & Su,
NoREC, 2020; ROADMAP "Multi-backend differential fleet").

Each test generates one portable query (type-matched operands,
order-insensitive subqueries -- see
:class:`~repro.generator.expr_gen.ExprGenerator` portable mode) and
executes it through a :class:`~repro.differential.pair.
DifferentialAdapter`, which tees it to both backends and raises
:class:`~repro.errors.DifferentialMismatch` when the canonical result
multisets differ.  Engine failures (internal error / crash / hang)
surface through the ordinary oracle machinery with ground-truth fault
attribution from the primary.
"""

from __future__ import annotations

import dataclasses

from repro.adapters.base import EngineAdapter
from repro.differential.compat import ALL_JOIN_KINDS
from repro.differential.pair import DifferentialAdapter
from repro.errors import DifferentialMismatch
from repro.generator.expr_gen import ExprGenerator
from repro.generator.query_gen import QueryGenerator, replace_join_on
from repro.oracles_base import Oracle, TestOutcome, TestReport


def build_backend(
    name: str, dialect: str = "sqlite", buggy: bool = False
) -> EngineAdapter:
    """Construct one backend by registry name.

    ``buggy`` seeds the fault catalog on simulated backends; real DBMS
    backends have no injectable faults and ignore it.  Unknown names
    raise ``ValueError`` listing the *registered* backends (imported
    lazily: the registry's built-ins construct adapters, so importing
    it at module level would be circular).
    """
    from repro.backends import build_backend as registry_build

    return registry_build(name, dialect=dialect, buggy=buggy)


def build_pair_adapter(
    backend_pair: tuple[str, str], dialect: str = "sqlite", buggy: bool = False
) -> DifferentialAdapter:
    """A :class:`DifferentialAdapter` from two registered backend names.

    Only the *primary* (first) backend receives injected faults: the
    secondary is the trusted reference the primary is diffed against.
    The pair's :class:`~repro.differential.compat.CompatPolicy` is
    *derived* from each backend's probed capability vector (cached per
    process); for ``(minidb, sqlite3)`` it reproduces the hand-written
    intersection exactly.
    """
    from repro.backends import pair_policy

    primary_name, secondary_name = backend_pair
    primary = build_backend(primary_name, dialect=dialect, buggy=buggy)
    secondary = build_backend(secondary_name, dialect=dialect, buggy=False)
    policy = pair_policy(primary_name, secondary_name, dialect=dialect)
    return DifferentialAdapter(primary, secondary, policy=policy)


class DifferentialOracle(Oracle):
    """One generated query per test, checked across two backends."""

    name = "differential"

    def __init__(self, max_depth: int = 3, allow_subqueries: bool = True) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.allow_subqueries = allow_subqueries
        self.expr_gen: ExprGenerator | None = None
        self.query_gen: QueryGenerator | None = None

    # -- lifecycle ---------------------------------------------------------------

    def on_prepare(self) -> None:
        assert self.adapter is not None and self.schema is not None
        policy = getattr(self.adapter, "policy", None)
        join_kinds = policy.join_kinds if policy is not None else ALL_JOIN_KINDS
        self.expr_gen = ExprGenerator(
            self.rng,
            self.schema,
            max_depth=self.max_depth,
            allow_subqueries=self.allow_subqueries,
            supports_any_all=self.adapter.supports_any_all,
            strict_typing=True,
            portable=True,
        )
        self.query_gen = QueryGenerator(
            self.rng,
            self.schema,
            self.expr_gen,
            join_kinds=join_kinds,
            use_views=True,
            portable=True,
        )

    # -- one test ----------------------------------------------------------------

    def check_once(self) -> TestReport | None:
        assert self.expr_gen is not None and self.query_gen is not None
        rng = self.rng
        skeleton = self.query_gen.from_skeleton()

        placements = ["where"] * 6 + ["having"] * 2
        if skeleton.on_join is not None:
            placements += ["join_on"] * 2
        placement = rng.choice(placements)

        if placement == "having":
            # HAVING predicates may only reference the grouping column:
            # bare non-grouped columns take an engine-chosen row of the
            # group, which two engines need not agree on.
            group_col = rng.choice(skeleton.scope)
            phi = self.expr_gen.predicate([group_col])
            query = self.query_gen.grouped_query(
                skeleton, having=phi.expr, group_col=group_col
            )
        elif placement == "join_on":
            phi = self.expr_gen.predicate(skeleton.scope)
            new_ref = replace_join_on(skeleton.ref, skeleton.on_join, phi.expr)
            skeleton = dataclasses.replace(skeleton, ref=new_ref)
            query = (
                self.query_gen.count_query(skeleton, None)
                if rng.random() < 0.5
                else self.query_gen.star_query(skeleton, None)
            )
        else:
            phi = self.expr_gen.predicate(skeleton.scope)
            predicate = self.query_gen.combined_predicate(
                phi.expr, skeleton.scope
            )
            query = (
                self.query_gen.count_query(skeleton, predicate)
                if rng.random() < 0.5
                else self.query_gen.star_query(skeleton, predicate)
            )

        try:
            self.execute(query.to_sql(), is_main_query=True, ast=query)
        except DifferentialMismatch as exc:
            # Ground-truth attribution: the fault (if any) fired on the
            # primary while producing the diverging result.
            self._fired |= self.adapter.fired_fault_ids()
            out = self.report(f"divergence: {exc}")
            # Both engines' plans are the triage signature: the same
            # statements diverging through different plan shapes are
            # different behaviors (Query Plan Guidance).
            primary_fp, secondary_fp = exc.fingerprints
            out.plan_fingerprint = (
                f"{primary_fp or '?'}|{secondary_fp or '?'}"
            )
            return out
        return None

    # -- reporting ----------------------------------------------------------------

    def _pair(self) -> tuple[str, str] | None:
        names = getattr(self.adapter, "backend_names", None)
        return tuple(names) if names is not None else None

    def report(self, description: str) -> TestReport:
        out = super().report(description)
        out.backend_pair = self._pair()
        return out

    def _bug(self, kind: str, message: str) -> TestOutcome:
        out = super()._bug(kind, message)
        if out.report is not None:
            out.report.backend_pair = self._pair()
        return out
