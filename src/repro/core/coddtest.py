"""The CODDTest oracle (paper Algorithm 1).

Per test:

1. choose a FROM skeleton and a predicate placement (WHERE / HAVING /
   JOIN ON -- Section 3.3, "Query construction"),
2. ``GenExpr``: generate phi and its referenced outer columns {c_i},
3. constant folding: run the auxiliary query A[phi],
4. build and run the original query O embedding phi,
5. constant propagation: build and run F = O[phi / R_phi],
6. any result discrepancy is a bug.

Configurations mirror the paper's Table 3 variants:
``expression_only`` (CODDTest & Expression) disables subqueries in phi;
``subquery_only`` (CODDTest & Subquery) makes phi subquery-rooted.
"""

from __future__ import annotations

import dataclasses

from repro.core.folding import (
    FoldResult,
    FoldSkip,
    fold_expression,
    is_correlated_select,
)
from repro.core.relations import RelationFolder
from repro.generator.expr_gen import ExprGenerator, GenExpr
from repro.generator.query_gen import (
    FromSkeleton,
    QueryGenerator,
    replace_join_on,
)
from repro.minidb import ast_nodes as A
from repro.oracles_base import Oracle, OracleSkip, TestReport


class CoddTestOracle(Oracle):
    """Constant-Optimization-Driven Database Testing."""

    name = "coddtest"

    def __init__(
        self,
        max_depth: int = 3,
        expression_only: bool = False,
        subquery_only: bool = False,
        relation_mode_prob: float = 0.15,
    ) -> None:
        super().__init__()
        if expression_only and subquery_only:
            raise ValueError("choose at most one of expression/subquery only")
        self.max_depth = max_depth
        self.expression_only = expression_only
        self.subquery_only = subquery_only
        self.relation_mode_prob = 0.0 if (expression_only or subquery_only) else relation_mode_prob
        if expression_only:
            self.name = "coddtest-expr"
        elif subquery_only:
            self.name = "coddtest-subq"
        self.expr_gen: ExprGenerator | None = None
        self.query_gen: QueryGenerator | None = None
        self.relation_folder: RelationFolder | None = None

    # -- lifecycle ---------------------------------------------------------------

    def on_prepare(self) -> None:
        assert self.adapter is not None and self.schema is not None
        self.expr_gen = ExprGenerator(
            self.rng,
            self.schema,
            max_depth=self.max_depth,
            allow_subqueries=not self.expression_only,
            supports_any_all=self.adapter.supports_any_all,
            strict_typing=self.adapter.strict_typing,
        )
        self.query_gen = QueryGenerator(
            self.rng,
            self.schema,
            self.expr_gen,
            join_kinds=("INNER", "LEFT", "CROSS", "FULL"),
            use_views=True,
        )
        self.relation_folder = RelationFolder(self)

    # -- one test ------------------------------------------------------------------

    def check_once(self) -> TestReport | None:
        assert self.expr_gen is not None and self.query_gen is not None
        if self.relation_folder is not None and (
            self.rng.random() < self.relation_mode_prob
        ):
            return self.relation_folder.check_once()
        return self._predicate_test()

    def _predicate_test(self) -> TestReport | None:
        assert self.expr_gen is not None and self.query_gen is not None
        rng = self.rng
        with self.profiled("generate"):
            skeleton = self.query_gen.from_skeleton()

            placements = ["where"] * 6 + ["having"] * 2
            if skeleton.on_join is not None:
                placements += ["join_on"] * 2
            placement = rng.choice(placements)

            phi_gen = self._generate_phi(skeleton, placement)
        phi = phi_gen.expr

        # Step 3: constant folding via the auxiliary query.
        try:
            fold = fold_expression(
                phi_gen,
                skeleton,
                phi_in_join_on=(placement == "join_on"),
                execute=lambda sql, ast=None: self.execute(sql, ast=ast).rows,
                scalar_multi_row=self._scalar_multi_row_policy(),
                is_correlated=is_correlated_select,
            )
        except FoldSkip:
            raise OracleSkip() from None

        # Step 4: the original query embeds phi as a sub-expression.  The
        # query shape is fixed *before* building O so that F differs from
        # O only in the propagated constant.
        if placement == "join_on":
            predicate = phi
        else:
            predicate = self.query_gen.combined_predicate(phi, skeleton.scope)
        shape = self._choose_shape(skeleton, placement)

        original = self._make_query(skeleton, placement, predicate, shape)
        o_result = self.execute(
            original.to_sql(), is_main_query=True, ast=original
        )

        # Step 5: constant propagation yields the folded query.
        folded_pred = A.replace_node(predicate, fold.target, fold.replacement)
        folded = self._make_query(skeleton, placement, folded_pred, shape)
        f_result = self.execute(folded.to_sql(), ast=folded)

        if self.compare_rows(o_result.rows, f_result.rows):
            return None
        return self.report(
            f"original and folded queries disagree: "
            f"{len(o_result.rows)} vs {len(f_result.rows)} rows "
            f"(placement={placement})"
        )

    # -- helpers --------------------------------------------------------------------

    def _generate_phi(self, skeleton: FromSkeleton, placement: str) -> GenExpr:
        assert self.expr_gen is not None
        rng = self.rng
        scope = skeleton.scope
        if self.subquery_only:
            if rng.random() < 0.4:
                return self.expr_gen.subquery_predicate([])
            return self.expr_gen.subquery_predicate(scope)
        if self.expression_only:
            if rng.random() < 0.3:
                return self.expr_gen.independent_predicate()
            return self.expr_gen.predicate(scope)
        r = rng.random()
        if r < 0.25:
            # Independent expression (Figure 1 left branch): constants or
            # non-correlated subqueries.
            return self.expr_gen.independent_predicate()
        if r < 0.55:
            return self.expr_gen.subquery_predicate(scope)
        return self.expr_gen.predicate(scope)

    def _scalar_multi_row_policy(self) -> str:
        engine = getattr(self.adapter, "engine", None)
        if engine is not None:
            return engine.profile.scalar_subquery_multi_row
        return "first"  # real SQLite takes the first row

    def _choose_shape(self, skeleton: FromSkeleton, placement: str):
        """Fix the non-predicate parts of O and F up front."""
        if placement == "having":
            return ("grouped", self.rng.choice(skeleton.scope))
        return ("count" if self.rng.random() < 0.5 else "star", None)

    def _make_query(
        self,
        skeleton: FromSkeleton,
        placement: str,
        predicate: A.Expr,
        shape,
    ) -> A.Select:
        assert self.query_gen is not None
        kind, group_col = shape
        if placement == "having":
            return self.query_gen.grouped_query(
                skeleton, having=predicate, group_col=group_col
            )
        if placement == "join_on":
            new_ref = replace_join_on(skeleton.ref, skeleton.on_join, predicate)
            skeleton = dataclasses.replace(skeleton, ref=new_ref)
            predicate = None  # type: ignore[assignment]
        if kind == "count":
            return self.query_gen.count_query(skeleton, predicate)
        return self.query_gen.star_query(skeleton, predicate)
