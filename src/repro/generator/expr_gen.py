"""Random expression generation (``GenExpr`` of Algorithm 1).

Generates the expression phi that undergoes constant folding, together
with the referenced outer-scope columns {c_i} that constant propagation
keys the CASE mapping on (paper Section 3.2).

Independent expressions (empty {c_i}) are constant expressions or
non-correlated subqueries; dependent expressions reference scope columns
directly or through correlated subqueries (paper Section 3, "Approach
overview").

Floating-point literals are avoided by construction: the paper reports
false alarms from folding floats and eschews them (Section 4.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.adapters.base import SchemaInfo, TableInfo
from repro.minidb import ast_nodes as A
from repro.minidb.values import SqlType, SqlValue

from repro.generator.state_gen import LARGE_INTS, TEXT_POOL


@dataclass(frozen=True)
class ScopeColumn:
    """A column visible to the expression being generated."""

    binding: str
    name: str
    sql_type: SqlType | None = None

    @property
    def ref(self) -> A.ColumnRef:
        return A.ColumnRef(self.binding, self.name)


@dataclass
class GenExpr:
    """A generated expression plus its outer references.

    ``outer_refs`` is the {c_i} set of Algorithm 1: empty means phi is an
    *independent* expression (foldable to a constant), non-empty means it
    is *dependent* (foldable to a per-row CASE mapping).
    """

    expr: A.Expr
    outer_refs: list[ScopeColumn] = field(default_factory=list)

    @property
    def independent(self) -> bool:
        return not self.outer_refs


class ExprGenerator:
    """Seeded random expression generator."""

    def __init__(
        self,
        rng: random.Random,
        schema: SchemaInfo,
        max_depth: int = 3,
        allow_subqueries: bool = True,
        supports_any_all: bool = True,
        strict_typing: bool = False,
        portable: bool = False,
    ) -> None:
        self.rng = rng
        self.schema = schema
        self.max_depth = max_depth
        self.allow_subqueries = allow_subqueries
        self.supports_any_all = supports_any_all
        self.strict_typing = strict_typing
        #: Portable mode (differential testing): only emit constructs
        #: whose semantics are *defined to coincide* across engines --
        #: type-matched comparisons (relaxed engines disagree on mixed
        #: text/number coercion), order-insensitive subqueries (no bare
        #: LIMIT, no GROUP BY inside scalar subqueries), and no
        #: comparisons against untyped (view) columns.
        self.portable = portable
        #: Guidance knobs (set per test by a guided policy's arm): a
        #: multiplier on the subquery-rooted choices of the boolean /
        #: scalar grammars, and on the aggregate-vs-LIMIT-1 split inside
        #: scalar subqueries.  1.0 is *exactly* the unguided
        #: distribution (weights multiply by 1.0, thresholds compare
        #: against the same literals), so default campaigns stay
        #: bit-identical to their pre-guidance streams.
        self.subquery_weight = 1.0
        self.aggregate_weight = 1.0
        self._alias_counter = 0

    # -- entry points ---------------------------------------------------------

    def predicate(self, scope: list[ScopeColumn]) -> GenExpr:
        """A boolean expression over *scope* (possibly independent)."""
        used: list[ScopeColumn] = []
        expr = self._boolean(scope, self.max_depth, used)
        return GenExpr(expr, _dedupe(used))

    def independent_predicate(self) -> GenExpr:
        """A predicate with no outer references (constant or built from a
        non-correlated subquery) -- the left branch of Figure 1."""
        return self.predicate([])

    def subquery_predicate(self, scope: list[ScopeColumn]) -> GenExpr:
        """A predicate whose root is a subquery construct (EXISTS, IN,
        quantified comparison, or scalar-subquery comparison)."""
        used: list[ScopeColumn] = []
        expr = self._subquery_bool(scope, self.max_depth, used)
        return GenExpr(expr, _dedupe(used))

    # -- booleans ---------------------------------------------------------------

    def _boolean(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        if depth <= 0:
            return self._leaf_bool(scope, used)
        choices: list[tuple[float, str]] = [
            (4.0, "comparison"),
            (1.5, "logic"),
            (1.0, "between"),
            (1.0, "in_list"),
            (0.8, "is_null"),
            (0.7, "not"),
            (0.6, "like"),
            (0.8, "case_bool"),
            (0.3, "literal"),
        ]
        if self.allow_subqueries and self.schema.base_tables:
            w = self.subquery_weight
            choices.extend(
                [
                    (1.2 * w, "exists"),
                    (1.2 * w, "in_subquery"),
                    (1.0 * w, "scalar_sub_cmp"),
                ]
            )
            if self.supports_any_all:
                choices.append((0.8 * w, "quantified"))
        kind = _weighted(rng, choices)

        if kind == "comparison":
            left, right = self._typed_operands(scope, depth - 1, used)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return A.Binary(op, left, right)
        if kind == "logic":
            op = rng.choice(["AND", "OR"])
            return A.Binary(
                op,
                self._boolean(scope, depth - 1, used),
                self._boolean(scope, depth - 1, used),
            )
        if kind == "not":
            return A.Unary("NOT", self._boolean(scope, depth - 1, used))
        if kind == "between":
            if self.portable:
                # All three operands must share a type: BETWEEN expands
                # to two comparisons, and a bound of another type is
                # exactly the mixed comparison engines disagree on.
                return self._portable_between(scope, used)
            operand, low = self._typed_operands(scope, depth - 1, used)
            if depth > 1 and rng.random() < 0.3:
                # Complex bound (possibly a CASE) -- the paper Listing 7
                # bug needs NOT BETWEEN with a CASE-valued bound.
                high = self._scalar(scope, depth - 1, used)
            else:
                _, high = self._typed_operands(scope, depth - 1, used)
            return A.Between(operand, low, high, negated=rng.random() < 0.3)
        if kind == "in_list":
            if self.portable:
                # Every list item must share the operand's type:
                # _literal_like falls back to integer literals for
                # column templates, which against a TEXT operand is the
                # mixed-type membership test engines disagree on.
                return self._portable_in_list(scope, used)
            operand, sample = self._typed_operands(scope, depth - 1, used)
            items: list[A.Expr] = [sample]
            for _ in range(rng.randint(0, 3)):
                items.append(self._literal_like(sample))
            return A.InList(operand, tuple(items), negated=rng.random() < 0.3)
        if kind == "is_null":
            return A.IsNull(
                self._scalar(scope, depth - 1, used), negated=rng.random() < 0.4
            )
        if kind == "like":
            operand = self._text_operand(scope, used)
            pattern = A.Literal(rng.choice(["a%", "%b%", "_", "%", "abc", "x_"]))
            op = "NOT LIKE" if rng.random() < 0.3 else "LIKE"
            return A.Binary(op, operand, pattern)
        if kind == "case_bool":
            return A.Case(
                None,
                (
                    A.CaseWhen(
                        self._boolean(scope, depth - 1, used),
                        self._boolean(scope, depth - 1, used),
                    ),
                ),
                self._boolean(scope, depth - 1, used)
                if rng.random() < 0.7
                else None,
            )
        if kind == "literal":
            return A.Literal(rng.choice([True, False, None]))
        if kind == "exists":
            return self._exists(scope, used)
        if kind == "in_subquery":
            if self.portable:
                operand, select = self._subquery_operand_pair(scope, used)
            else:
                operand, _ = self._typed_operands(scope, depth - 1, used)
                select = self._single_column_select(scope, used)
            return A.InSubquery(operand, select, negated=rng.random() < 0.3)
        if kind == "scalar_sub_cmp":
            if self.portable:
                # Portable scalar subqueries are numeric aggregates, so
                # the comparison operand must be numeric too.
                left = self._numeric_operand(scope, depth - 1, used)
            else:
                left = self._scalar(scope, depth - 1, used)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return A.Binary(op, left, self._scalar_subquery(scope, used))
        if kind == "quantified":
            if self.portable:
                operand, select = self._subquery_operand_pair(scope, used)
                op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
                quant = rng.choice(["ANY", "ALL", "SOME"])
                return A.Quantified(operand, op, quant, select)
            operand, _ = self._typed_operands(scope, depth - 1, used)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            quant = rng.choice(["ANY", "ALL", "SOME"])
            return A.Quantified(
                operand, op, quant, self._single_column_select(scope, used)
            )
        raise AssertionError(kind)

    def _portable_operand(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> tuple[A.Expr, SqlType | None]:
        """A typed-column or literal operand plus its type, so every
        expression compared against it can be generated type-matched."""
        rng = self.rng
        typed = [c for c in scope if c.sql_type is not None]
        if typed and rng.random() < 0.75:
            col = rng.choice(typed)
            used.append(col)
            return col.ref, col.sql_type
        value = self._literal_value()
        return A.Literal(value), _value_type(value)

    def _portable_between(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        operand, sql_type = self._portable_operand(scope, used)
        low = self._match_type(sql_type, scope, used)
        high = self._match_type(sql_type, scope, used)
        return A.Between(operand, low, high, negated=rng.random() < 0.3)

    def _portable_in_list(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        operand, sql_type = self._portable_operand(scope, used)
        items = tuple(
            self._match_type(sql_type, scope, used)
            for _ in range(rng.randint(1, 4))
        )
        return A.InList(operand, items, negated=rng.random() < 0.3)

    def _leaf_bool(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        left, right = self._typed_operands(scope, 0, used)
        op = self.rng.choice(["=", "!=", "<", ">", "<=", ">="])
        return A.Binary(op, left, right)

    def _subquery_bool(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        options = ["exists", "in_subquery", "scalar_sub_cmp", "scalar_sub_truth"]
        if self.supports_any_all:
            options.append("quantified")
        kind = rng.choice(options)
        if kind == "exists":
            return self._exists(scope, used)
        if kind == "in_subquery":
            if self.portable:
                operand, select = self._subquery_operand_pair(scope, used)
            else:
                operand, _ = self._typed_operands(scope, max(depth - 1, 0), used)
                select = self._single_column_select(scope, used)
            return A.InSubquery(operand, select, negated=rng.random() < 0.3)
        if kind == "scalar_sub_cmp":
            if self.portable:
                left = self._numeric_operand(scope, max(depth - 1, 0), used)
            else:
                left = self._scalar(scope, max(depth - 1, 0), used)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return A.Binary(op, left, self._scalar_subquery(scope, used))
        if kind == "scalar_sub_truth":
            # Bare subquery as a predicate (relaxed profiles), or compared
            # against a constant under strict typing.
            sub = self._scalar_subquery(scope, used)
            if self.strict_typing:
                return A.Binary(">", sub, A.Literal(0))
            return sub
        if self.portable:
            operand, select = self._subquery_operand_pair(scope, used)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            quant = rng.choice(["ANY", "ALL", "SOME"])
            return A.Quantified(operand, op, quant, select)
        operand, _ = self._typed_operands(scope, max(depth - 1, 0), used)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        quant = rng.choice(["ANY", "ALL", "SOME"])
        return A.Quantified(
            operand, op, quant, self._single_column_select(scope, used)
        )

    # -- scalars ---------------------------------------------------------------

    def _scalar(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        if depth <= 0:
            return self._leaf_scalar(scope, used)
        choices: list[tuple[float, str]] = [
            (3.0, "leaf"),
            (2.0, "arith"),
            (0.8, "case"),
            (0.6, "cast"),
            (0.8, "func"),
            (0.5, "neg"),
            (0.5, "concat"),
        ]
        if self.allow_subqueries and self.schema.base_tables:
            choices.append((0.8 * self.subquery_weight, "scalar_subquery"))
        kind = _weighted(rng, choices)
        if kind == "leaf":
            return self._leaf_scalar(scope, used)
        if kind == "arith":
            op = rng.choice(["+", "-", "*", "/", "%"])
            return A.Binary(
                op,
                self._numeric_operand(scope, depth - 1, used),
                self._numeric_operand(scope, depth - 1, used),
            )
        if kind == "case":
            return A.Case(
                None,
                (
                    A.CaseWhen(
                        self._boolean(scope, depth - 1, used),
                        self._scalar(scope, depth - 1, used),
                    ),
                ),
                self._scalar(scope, depth - 1, used)
                if rng.random() < 0.7
                else None,
            )
        if kind == "cast":
            target = rng.choice(["INTEGER", "TEXT", "REAL"])
            return A.Cast(self._scalar(scope, depth - 1, used), target)
        if kind == "func":
            return self._func(scope, depth, used)
        if kind == "neg":
            return A.Unary("-", self._numeric_operand(scope, depth - 1, used))
        if kind == "concat":
            if self.strict_typing:
                # Strict dialects concatenate text only.
                return A.Binary(
                    "||",
                    self._text_operand(scope, used),
                    self._text_operand(scope, used),
                )
            return A.Binary(
                "||",
                self._scalar(scope, depth - 1, used),
                self._scalar(scope, depth - 1, used),
            )
        if kind == "scalar_subquery":
            return self._scalar_subquery(scope, used)
        raise AssertionError(kind)

    def _func(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        name = rng.choice(
            ["LENGTH", "ABS", "COALESCE", "NULLIF", "IFNULL", "UPPER", "LOWER"]
        )
        if name in ("LENGTH", "UPPER", "LOWER"):
            return A.FuncCall(name, (self._text_operand(scope, used),))
        if name == "ABS":
            return A.FuncCall(name, (self._numeric_operand(scope, depth - 1, used),))
        if self.portable:
            # NULLIF compares its arguments, and COALESCE/IFNULL results
            # flow into comparisons -- keep the types uniform.
            args = (
                self._numeric_operand(scope, depth - 1, used),
                self._numeric_operand(scope, depth - 1, used),
            )
        else:
            args = (
                self._scalar(scope, depth - 1, used),
                self._scalar(scope, depth - 1, used),
            )
        return A.FuncCall(name, args)

    def _leaf_scalar(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        if scope and rng.random() < 0.6:
            col = rng.choice(scope)
            used.append(col)
            return col.ref
        return A.Literal(self._literal_value())

    # -- operand helpers -----------------------------------------------------------

    def _typed_operands(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> tuple[A.Expr, A.Expr]:
        """A pair of comparison operands with compatible types (required
        under strict typing, paper Section 3.3)."""
        rng = self.rng
        if self.portable:
            # Untyped columns (views) hold values of unknown runtime
            # type; comparing them is exactly the mixed-type territory
            # relaxed engines disagree on.
            scope = [c for c in scope if c.sql_type is not None]
        if scope and rng.random() < 0.75:
            col = rng.choice(scope)
            used.append(col)
            left: A.Expr = col.ref
            right = self._match_type(col.sql_type, scope, used)
            if rng.random() < 0.12:
                type_name = {
                    SqlType.TEXT: "TEXT",
                    SqlType.REAL: "REAL",
                    SqlType.BOOLEAN: "BOOL",
                }.get(col.sql_type, "INTEGER")
                left = A.Cast(left, type_name)
            return left, right
        value = self._literal_value()
        left = A.Literal(value)
        if self.strict_typing:
            right = A.Literal(self._literal_of_type(_value_type(value)))
        else:
            right = (
                A.Literal(self._literal_value())
                if not scope or rng.random() < 0.5
                else self._leaf_scalar(scope, used)
            )
        return left, right

    def _match_type(
        self,
        sql_type: SqlType | None,
        scope: list[ScopeColumn],
        used: list[ScopeColumn],
    ) -> A.Expr:
        rng = self.rng
        same_type = [c for c in scope if c.sql_type == sql_type]
        if same_type and rng.random() < 0.35:
            col = rng.choice(same_type)
            used.append(col)
            return col.ref
        if self.strict_typing:
            return A.Literal(self._literal_of_type(sql_type))
        return A.Literal(self._literal_value())

    def _numeric_operand(
        self, scope: list[ScopeColumn], depth: int, used: list[ScopeColumn]
    ) -> A.Expr:
        rng = self.rng
        numeric = [
            c
            for c in scope
            if c.sql_type in (SqlType.INTEGER, SqlType.REAL)
            # Untyped (view) columns may hold text: fine inside relaxed
            # arithmetic, but a bare reference can end up as a direct
            # comparison operand, where engines disagree on text.
            or (c.sql_type is None and not self.portable)
        ]
        if numeric and rng.random() < 0.55:
            col = rng.choice(numeric)
            used.append(col)
            return col.ref
        if depth > 0 and rng.random() < 0.3:
            op = rng.choice(["+", "-", "*"])
            return A.Binary(
                op,
                self._numeric_operand(scope, depth - 1, used),
                self._numeric_operand(scope, depth - 1, used),
            )
        return A.Literal(self.rng.randint(-5, 10))

    def _text_operand(
        self, scope: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        expr: A.Expr
        texts = [c for c in scope if c.sql_type in (SqlType.TEXT, None)]
        if texts and self.rng.random() < 0.6:
            col = self.rng.choice(texts)
            used.append(col)
            expr = col.ref
        else:
            expr = A.Literal(self.rng.choice(TEXT_POOL))
        if self.rng.random() < 0.15:
            expr = A.Cast(expr, "TEXT")
        return expr

    def _literal_value(self) -> SqlValue:
        rng = self.rng
        r = rng.random()
        if r < 0.10:
            return None
        if r < 0.55:
            return rng.randint(-5, 10)
        if r < 0.62:
            return rng.choice(LARGE_INTS)
        if r < 0.82:
            return rng.choice(TEXT_POOL)
        if r < 0.94:
            return rng.random() < 0.5
        return float(rng.randint(-5, 10))

    def _literal_of_type(self, sql_type: SqlType | None) -> SqlValue:
        rng = self.rng
        if rng.random() < 0.08:
            return None
        if sql_type is SqlType.TEXT:
            return rng.choice(TEXT_POOL)
        if sql_type is SqlType.BOOLEAN:
            return rng.random() < 0.5
        if sql_type is SqlType.REAL:
            return float(rng.randint(-5, 10))
        if rng.random() < 0.1:
            return rng.choice(LARGE_INTS)
        return rng.randint(-5, 10)

    def _literal_like(self, template: A.Expr) -> A.Expr:
        """A literal compatible with an existing operand (for IN lists)."""
        if isinstance(template, A.ColumnRef):
            return A.Literal(self.rng.randint(-5, 10))
        if isinstance(template, A.Literal):
            return A.Literal(self._literal_of_type(_value_type(template.value)))
        return A.Literal(self.rng.randint(-5, 10))

    # -- subqueries -----------------------------------------------------------------

    def _fresh_alias(self) -> str:
        self._alias_counter += 1
        return f"sq{self._alias_counter}"

    def _pick_table(self) -> tuple[TableInfo, str]:
        table = self.rng.choice(self.schema.base_tables)
        return table, self._fresh_alias()

    def _inner_scope(self, table: TableInfo, alias: str) -> list[ScopeColumn]:
        return [ScopeColumn(alias, c.name, c.sql_type) for c in table.columns]

    def _inner_where(
        self,
        inner: list[ScopeColumn],
        outer: list[ScopeColumn],
        used: list[ScopeColumn],
    ) -> A.Expr | None:
        """Random subquery predicate, correlated when *outer* is non-empty
        (paper Listing 2)."""
        rng = self.rng
        r = rng.random()
        if r < 0.22:
            return None
        if outer and r < 0.55:
            if not self.portable:
                outer_col = rng.choice(outer)
                inner_col = rng.choice(inner)
                used.append(outer_col)
                op = rng.choice(["=", "=", "!=", "<", ">"])
                return A.Binary(op, outer_col.ref, inner_col.ref)
            pairs = [
                (o, i)
                for o in outer
                for i in inner
                if o.sql_type is not None and o.sql_type == i.sql_type
            ]
            if pairs:
                outer_col, inner_col = rng.choice(pairs)
                used.append(outer_col)
                op = rng.choice(["=", "=", "!=", "<", ">"])
                return A.Binary(op, outer_col.ref, inner_col.ref)
        if r < 0.63 and self.schema.base_tables:
            # Nested subquery predicate (the paper's hang-class bugs live
            # in nested NOT IN / NOT EXISTS shapes).
            table = rng.choice(self.schema.base_tables)
            nested_alias = self._fresh_alias()
            nested_col = rng.choice(table.columns)
            nested = A.Select(
                items=(A.SelectItem(A.ColumnRef(nested_alias, nested_col.name)),),
                from_clause=A.NamedTable(table.name, nested_alias),
            )
            in_candidates = [
                c
                for c in inner
                if not self.portable
                or (c.sql_type is not None and c.sql_type == nested_col.sql_type)
            ]
            if in_candidates and rng.random() < 0.5:
                inner_col = rng.choice(in_candidates)
                return A.InSubquery(inner_col.ref, nested, negated=rng.random() < 0.5)
            return A.Exists(nested, negated=rng.random() < 0.5)
        if r < 0.72:
            # Simple-form CASE over an inner column (reaches the paper's
            # CASE-in-subquery internal errors).
            inner_col = rng.choice(inner)
            lit = A.Literal(self._literal_of_type(inner_col.sql_type))
            return A.Case(
                inner_col.ref,
                (A.CaseWhen(lit, A.Literal(rng.random() < 0.5)),),
                A.Literal(rng.random() < 0.5) if rng.random() < 0.7 else None,
            )
        inner_col = rng.choice(inner)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        lit = A.Literal(self._literal_of_type(inner_col.sql_type))
        return A.Binary(op, inner_col.ref, lit)

    def _scalar_subquery(
        self, outer: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        """Aggregate (no GROUP BY) or LIMIT 1 ensures a scalar result
        (paper Section 3.3, Predicate construction)."""
        rng = self.rng
        table, alias = self._pick_table()
        inner = self._inner_scope(table, alias)
        if self.portable:
            return self._portable_scalar_subquery(table, alias, inner, outer, used)
        target = rng.choice(inner)
        where = self._inner_where(inner, outer, used)
        group_by: tuple[A.Expr, ...] = ()
        if rng.random() < min(0.97, 0.7 * self.aggregate_weight):
            agg = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
            distinct = rng.random() < 0.12
            arg: A.Expr = target.ref
            if not distinct and rng.random() < 0.25:
                numeric_inner = [
                    c for c in inner
                    if c.sql_type in (SqlType.INTEGER, SqlType.REAL)
                    or (c.sql_type is None and not self.strict_typing)
                ]
                if numeric_inner:
                    target = rng.choice(numeric_inner)
                    arg = A.Binary("+", target.ref, A.Literal(rng.randint(0, 3)))
            item = A.SelectItem(A.FuncCall(agg, (arg,), distinct=distinct))
            limit = None
            if rng.random() < 0.25:
                # Aggregate subquery with a GROUP BY whose term is not in
                # the result set -- the paper Listing 1 shape (the SQLite
                # bug needs exactly this).  Multi-row results are taken
                # first-row or rejected per dialect (paper Listing 5).
                group_col = rng.choice(inner)
                group_by = (A.Binary(">", A.Literal(1), group_col.ref),)
        else:
            item = A.SelectItem(target.ref)
            limit = A.Literal(1)
        select = A.Select(
            items=(item,),
            from_clause=A.NamedTable(table.name, alias),
            where=where,
            group_by=group_by,
            limit=limit,
        )
        return A.ScalarSubquery(select)

    def _portable_scalar_subquery(
        self,
        table: TableInfo,
        alias: str,
        inner: list[ScopeColumn],
        outer: list[ScopeColumn],
        used: list[ScopeColumn],
    ) -> A.Expr:
        """Order-insensitive scalar subquery: an aggregate without GROUP
        BY over a numeric column (or ``COUNT(*)``).

        The general form's ``LIMIT 1``-without-ORDER-BY and multi-row
        GROUP BY shapes make the scalar depend on scan order, which two
        engines need not share.
        """
        rng = self.rng
        numeric = [
            c for c in inner if c.sql_type in (SqlType.INTEGER, SqlType.REAL)
        ]
        where = self._inner_where(inner, outer, used)
        if numeric and rng.random() < min(0.97, 0.7 * self.aggregate_weight):
            target = rng.choice(numeric)
            agg = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
            distinct = rng.random() < 0.12
            item = A.SelectItem(A.FuncCall(agg, (target.ref,), distinct=distinct))
        else:
            item = A.SelectItem(A.FuncCall("COUNT", (), star=True))
        select = A.Select(
            items=(item,),
            from_clause=A.NamedTable(table.name, alias),
            where=where,
        )
        return A.ScalarSubquery(select)

    def _subquery_operand_pair(
        self, outer: list[ScopeColumn], used: list[ScopeColumn]
    ) -> tuple[A.Expr, A.Select]:
        """Type-matched (operand, single-column SELECT) for IN/quantified
        predicates in portable mode: the subquery target column is chosen
        first and the operand is a scope column or literal of the *same*
        type, so membership tests never compare across types."""
        rng = self.rng
        table, alias = self._pick_table()
        inner = self._inner_scope(table, alias)
        typed = [c for c in inner if c.sql_type is not None]
        target = rng.choice(typed or inner)
        matches = [
            c
            for c in outer
            if c.sql_type is not None and c.sql_type == target.sql_type
        ]
        if matches and rng.random() < 0.7:
            col = rng.choice(matches)
            used.append(col)
            operand: A.Expr = col.ref
        else:
            operand = A.Literal(self._literal_of_type(target.sql_type))
        where = self._inner_where(inner, outer, used)
        select = A.Select(
            items=(A.SelectItem(target.ref),),
            from_clause=A.NamedTable(table.name, alias),
            where=where,
        )
        return operand, select

    def _single_column_select(
        self, outer: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Select:
        rng = self.rng
        table, alias = self._pick_table()
        inner = self._inner_scope(table, alias)
        target = rng.choice(inner)
        where = self._inner_where(inner, outer, used)
        limit = None
        if not self.portable and rng.random() < 0.3:
            # LIMIT without ORDER BY returns engine-dependent rows.
            limit = A.Literal(rng.randint(1, 3))
        return A.Select(
            items=(A.SelectItem(target.ref),),
            from_clause=A.NamedTable(table.name, alias),
            where=where,
            limit=limit,
        )

    def _exists(
        self, outer: list[ScopeColumn], used: list[ScopeColumn]
    ) -> A.Expr:
        select = self._single_column_select(outer, used)
        return A.Exists(select, negated=self.rng.random() < 0.3)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _weighted(rng: random.Random, choices: list[tuple[float, str]]) -> str:
    total = sum(w for w, _ in choices)
    pick = rng.random() * total
    acc = 0.0
    for weight, kind in choices:
        acc += weight
        if pick <= acc:
            return kind
    return choices[-1][1]


def _dedupe(cols: list[ScopeColumn]) -> list[ScopeColumn]:
    seen: set[tuple[str, str]] = set()
    out: list[ScopeColumn] = []
    for col in cols:
        key = (col.binding.lower(), col.name.lower())
        if key not in seen:
            seen.add(key)
            out.append(col)
    return out


def _value_type(value: SqlValue) -> SqlType | None:
    from repro.minidb.values import type_of

    if value is None:
        return None
    return type_of(value)
