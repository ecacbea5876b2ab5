"""TLP: Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020; paper
baseline [31]).

A query Q is decomposed into three partitioning queries whose predicates
are ``p``, ``NOT p``, and ``p IS NULL``; for any row exactly one of the
three holds, so the multiset union of the partitions must equal Q's
result.  TLP also covers aggregates and HAVING (paper Section 6), which
this implementation reproduces with three modes:

* ``plain``     -- row partitioning in WHERE,
* ``aggregate`` -- COUNT/SUM/MIN/MAX recombined across partitions,
* ``having``    -- partitioning HAVING over a grouped query.

Like NoREC, TLP generates no subqueries.
"""

from __future__ import annotations

import dataclasses

from repro.generator.expr_gen import ExprGenerator
from repro.generator.query_gen import FromSkeleton, QueryGenerator
from repro.minidb import ast_nodes as A
from repro.minidb.values import SqlType
from repro.oracles_base import Oracle, OracleSkip, TestReport, canonical


class TLPOracle(Oracle):
    name = "tlp"

    def __init__(self, max_depth: int = 3) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.expr_gen: ExprGenerator | None = None
        self.query_gen: QueryGenerator | None = None

    def on_prepare(self) -> None:
        assert self.adapter is not None and self.schema is not None
        self.expr_gen = ExprGenerator(
            self.rng,
            self.schema,
            max_depth=self.max_depth,
            allow_subqueries=False,
            supports_any_all=False,
            strict_typing=self.adapter.strict_typing,
        )
        self.query_gen = QueryGenerator(
            self.rng,
            self.schema,
            self.expr_gen,
            join_kinds=("INNER", "LEFT", "CROSS"),
            use_views=True,
        )

    def check_once(self) -> TestReport | None:
        assert self.expr_gen is not None and self.query_gen is not None
        mode = self.rng.choices(
            ["plain", "aggregate", "having"], weights=[0.7, 0.15, 0.15]
        )[0]
        skeleton = self.query_gen.from_skeleton()
        predicate = self.expr_gen.predicate(skeleton.scope).expr
        partitions = _partitions(predicate)
        if mode == "plain":
            return self._check_plain(skeleton, partitions)
        if mode == "aggregate":
            return self._check_aggregate(skeleton, partitions)
        return self._check_having(skeleton, partitions)

    # -- modes ------------------------------------------------------------------

    def _check_plain(
        self, skeleton: FromSkeleton, partitions: list[A.Expr]
    ) -> TestReport | None:
        assert self.query_gen is not None
        base = self.query_gen.star_query(skeleton, None)
        expected = self.execute(base.to_sql(), ast=base).rows
        union: list = []
        if self.rng.random() < 0.8:
            # Execute the three partitions as one UNION ALL query -- the
            # paper notes TLP randomly chooses between the two forms,
            # which is why its QPT averages just above 2 (Section 4.3).
            # The chain nests to the right, as the parser builds it.
            combined = None
            for part in reversed(partitions):
                q = self.query_gen.star_query(skeleton, part)
                if combined is not None:
                    q = dataclasses.replace(q, set_op=("UNION", True, combined))
                combined = q
            sql = combined.to_sql()
            union = list(self.execute(sql, is_main_query=True, ast=combined).rows)
        else:
            for i, part in enumerate(partitions):
                q = self.query_gen.star_query(skeleton, part)
                union.extend(
                    self.execute(q.to_sql(), is_main_query=(i == 0), ast=q).rows
                )
        if self.compare_rows(expected, union):
            return None
        return self.report(
            f"partition union has {len(union)} rows, base query has "
            f"{len(expected)}"
        )

    def _check_aggregate(
        self, skeleton: FromSkeleton, partitions: list[A.Expr]
    ) -> TestReport | None:
        rng = self.rng
        # Typed numeric columns only: client-side recombination of MIN/MAX
        # over dynamically typed columns would have to re-implement the
        # engine's cross-type collation and risk false alarms.
        numeric = [
            c
            for c in skeleton.scope
            if c.sql_type in (SqlType.INTEGER, SqlType.REAL)
        ]
        if not numeric:
            raise OracleSkip()
        col = rng.choice(numeric)
        func = rng.choice(["COUNT", "SUM", "MIN", "MAX"])
        agg = A.FuncCall(func, (col.ref,))

        def agg_query(where: A.Expr | None) -> A.Select:
            return A.Select(
                items=(A.SelectItem(agg, alias="a"),),
                from_clause=skeleton.ref,
                where=where,
            )

        base_query = agg_query(None)
        base_rows = self.execute(base_query.to_sql(), ast=base_query).rows
        base = base_rows[0][0]
        parts = []
        for i, part in enumerate(partitions):
            q = agg_query(part)
            rows = self.execute(q.to_sql(), is_main_query=(i == 0), ast=q).rows
            parts.append(rows[0][0])

        combined = _combine(func, parts)
        if _agg_equal(base, combined):
            return None
        return self.report(
            f"{func} over partitions is {combined!r}, over base is {base!r}"
        )

    def _check_having(
        self, skeleton: FromSkeleton, partitions: list[A.Expr]
    ) -> TestReport | None:
        assert self.query_gen is not None
        group_col = self.rng.choice(skeleton.scope)
        base = self.query_gen.grouped_query(skeleton, having=None, group_col=group_col)
        expected = self.execute(base.to_sql(), ast=base).rows
        union: list = []
        for i, part in enumerate(partitions):
            q = self.query_gen.grouped_query(
                skeleton, having=part, group_col=group_col
            )
            union.extend(self.execute(q.to_sql(), is_main_query=(i == 0), ast=q).rows)
        if self.compare_rows(expected, union):
            return None
        return self.report(
            f"HAVING partition union has {len(union)} groups, base has "
            f"{len(expected)}"
        )


def _partitions(p: A.Expr) -> list[A.Expr]:
    """The TLP triple: p, NOT p, p IS NULL."""
    return [p, A.Unary("NOT", p), A.IsNull(p)]


def _combine(func: str, parts: list):
    non_null = [v for v in parts if v is not None]
    if func in ("COUNT", "SUM"):
        if func == "COUNT":
            return sum(non_null) if non_null else 0
        return sum(non_null) if non_null else None
    if not non_null:
        return None
    return min(non_null) if func == "MIN" else max(non_null)


def _agg_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return abs(float(a) - float(b)) < 1e-9
    return a == b
