"""Random query construction (step 4 of Figure 1, ``QueryGenerate``).

Builds FROM skeletons (tables, views, joins with ON predicates) and
assembles original queries embedding the expression phi in a chosen
predicate position (WHERE / HAVING / JOIN ON), per paper Section 3.3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.adapters.base import SchemaInfo
from repro.generator.expr_gen import ExprGenerator, ScopeColumn
from repro.minidb import ast_nodes as A


@dataclass
class FromSkeleton:
    """A FROM clause plus the column scope it exposes.

    ``join_free_ref`` is the same set of relations combined with CROSS
    joins and no ON predicates: the FROM clause auxiliary queries use
    when phi *is* a JOIN ON predicate, because phi is then evaluated on
    the raw row pairs before the join (paper Section 3.2).
    """

    ref: A.TableRef
    scope: list[ScopeColumn]
    relations: list[str] = field(default_factory=list)
    join_kinds: list[str] = field(default_factory=list)
    on_join: A.Join | None = None  # innermost join (phi-as-ON target)

    def join_free_ref(self) -> A.TableRef:
        """The relations cross-joined without ON predicates."""
        return _strip_ons(self.ref)


def _strip_ons(ref: A.TableRef) -> A.TableRef:
    if isinstance(ref, A.Join):
        return A.Join(
            "CROSS", _strip_ons(ref.left), _strip_ons(ref.right), None
        )
    return ref


def replace_join_on(
    ref: A.TableRef, target: A.Join | None, predicate: A.Expr
) -> A.TableRef:
    """Rebuild a FROM tree with *target*'s ON clause replaced by
    *predicate* (a CROSS target becomes INNER so the ON is legal).
    Used by oracles that place the tested expression in JOIN ... ON
    position (paper Section 3.3, "Query construction")."""
    if isinstance(ref, A.Join):
        if ref is target:
            kind = "INNER" if ref.kind == "CROSS" else ref.kind
            return A.Join(kind, ref.left, ref.right, predicate)
        return A.Join(
            ref.kind,
            replace_join_on(ref.left, target, predicate),
            replace_join_on(ref.right, target, predicate),
            ref.on,
        )
    return ref


class QueryGenerator:
    """Seeded random query generator shared by all oracles."""

    def __init__(
        self,
        rng: random.Random,
        schema: SchemaInfo,
        expr_gen: ExprGenerator,
        join_kinds: tuple[str, ...] = ("INNER", "LEFT", "CROSS", "FULL"),
        use_views: bool = True,
        max_relations: int = 2,
        portable: bool = False,
    ) -> None:
        self.rng = rng
        self.schema = schema
        self.expr_gen = expr_gen
        self.join_kinds = join_kinds
        self.use_views = use_views
        self.max_relations = max_relations
        #: Portable mode (differential testing): ON predicates only
        #: compare columns of equal declared type -- relaxed engines
        #: disagree on mixed text/number comparison semantics.
        self.portable = portable
        #: Guidance knob (set per test by a guided policy's arm): tilt
        #: the relation-count pick toward wider FROM clauses.  At the
        #: neutral 1.0 the original ``randint`` path is taken, so the
        #: unguided random stream is bit-identical to pre-guidance code.
        self.join_weight = 1.0

    # -- FROM clause ------------------------------------------------------------

    def from_skeleton(self, with_on_predicates: bool = True) -> FromSkeleton:
        """Pick 1..max_relations relations and join them."""
        rng = self.rng
        pool = [
            t for t in self.schema.tables if self.use_views or t.kind == "table"
        ]
        if not pool:
            raise ValueError("schema has no relations")
        top = min(self.max_relations, len(pool))
        if self.join_weight == 1.0:
            count = rng.randint(1, top)
        else:
            # Geometric tilt toward more relations: weight w**(k-1) for
            # k relations (w>1 favors joins, w<1 favors single tables).
            weights = [self.join_weight ** k for k in range(top)]
            pick = rng.random() * sum(weights)
            count = top
            acc = 0.0
            for k, weight in enumerate(weights, start=1):
                acc += weight
                if pick <= acc:
                    count = k
                    break
        picked = rng.sample(pool, count)

        scope: list[ScopeColumn] = []
        relations: list[str] = []
        join_kinds: list[str] = []
        ref: A.TableRef | None = None
        on_join: A.Join | None = None
        for i, table in enumerate(picked):
            binding = table.name if count == 1 else f"j{i}"
            alias = None if count == 1 else binding
            named = A.NamedTable(table.name, alias)
            table_scope = [
                ScopeColumn(binding, c.name, c.sql_type) for c in table.columns
            ]
            if ref is None:
                ref = named
            else:
                kind = rng.choice(self.join_kinds)
                on: A.Expr | None = None
                if kind != "CROSS" and with_on_predicates:
                    on = self._on_predicate(scope, table_scope)
                join = A.Join(kind, ref, named, on)
                ref = join
                on_join = join
                join_kinds.append(kind)
            scope.extend(table_scope)
            relations.append(table.name)
        assert ref is not None
        return FromSkeleton(ref, scope, relations, join_kinds, on_join)

    def _on_predicate(
        self, left_scope: list[ScopeColumn], right_scope: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        if left_scope and right_scope and rng.random() < 0.7:
            if not self.portable:
                lcol = rng.choice(left_scope)
                rcol = rng.choice(right_scope)
                op = rng.choice(["=", "=", "!=", "<"])
                return A.Binary(op, lcol.ref, rcol.ref)
            pairs = [
                (l, r)
                for l in left_scope
                for r in right_scope
                if l.sql_type is not None and l.sql_type == r.sql_type
            ]
            if pairs:
                lcol, rcol = rng.choice(pairs)
                op = rng.choice(["=", "=", "!=", "<"])
                return A.Binary(op, lcol.ref, rcol.ref)
        return A.Literal(rng.random() < 0.8)

    # -- whole queries -----------------------------------------------------------

    def count_query(self, skeleton: FromSkeleton, where: A.Expr | None) -> A.Select:
        """``SELECT COUNT(*) FROM ... WHERE p`` -- the workhorse original
        query shape (Figure 1 step 4)."""
        return A.Select(
            items=(A.SelectItem(A.FuncCall("COUNT", (), star=True)),),
            from_clause=skeleton.ref,
            where=where,
        )

    def star_query(self, skeleton: FromSkeleton, where: A.Expr | None) -> A.Select:
        return A.Select(
            items=(A.SelectItem(None),),
            from_clause=skeleton.ref,
            where=where,
        )

    def grouped_query(
        self,
        skeleton: FromSkeleton,
        having: A.Expr | None,
        where: A.Expr | None = None,
        group_col=None,
    ) -> A.Select:
        """``SELECT g, COUNT(*) ... GROUP BY g HAVING p``.

        Pass *group_col* when the same grouping must be reused across
        several related queries (metamorphic pairs/partitions).
        """
        if group_col is None:
            group_col = self.rng.choice(skeleton.scope)
        return A.Select(
            items=(
                A.SelectItem(group_col.ref, alias="g"),
                A.SelectItem(A.FuncCall("COUNT", (), star=True), alias="n"),
            ),
            from_clause=skeleton.ref,
            where=where,
            group_by=(group_col.ref,),
            having=having,
        )

    def fetch_predicate_query(
        self, skeleton: FromSkeleton, predicate: A.Expr
    ) -> A.Select:
        """``SELECT (p) FROM ...`` -- NoREC's non-optimizing form."""
        return A.Select(
            items=(A.SelectItem(predicate, alias="p"),),
            from_clause=skeleton.ref,
        )

    def combined_predicate(
        self, phi: A.Expr, scope: list[ScopeColumn]
    ) -> A.Expr:
        """Wrap phi into a larger random predicate (Figure 1: the query
        takes phi *as a sub-expression*)."""
        rng = self.rng
        r = rng.random()
        if r < 0.4:
            return phi
        extra_gen = self.expr_gen.predicate(scope)
        extra = extra_gen.expr
        if r < 0.7:
            return A.Binary("AND", phi, extra)
        if r < 0.9:
            return A.Binary("OR", phi, extra)
        return A.Unary("NOT", A.Binary("AND", phi, extra))
