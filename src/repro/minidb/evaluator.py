"""Expression evaluation for MiniDB.

Evaluation is deterministic for a fixed database state -- the property
CODDTest's metamorphic relation depends on (paper Section 3).  The
evaluator resolves column references against a chain of :class:`Frame`
objects, which is how correlated subqueries see outer-query rows
(paper Listing 2): each nested SELECT execution pushes a frame whose
parent is the outer row's frame.

Fault hooks fire at the expression sites documented in
:mod:`repro.minidb.faults`; coverage probes mark each evaluated construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CatalogError, TypeError_, UnsupportedError, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb import values as V
from repro.minidb.coverage import register_tags
from repro.minidb.functions import AGGREGATE_NAMES, VARIADIC_MINMAX, call_scalar
from repro.minidb.plan import Schema
from repro.minidb.values import SqlType, SqlValue, TypingMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.minidb.engine import Engine

register_tags(
    "eval.literal",
    "eval.column",
    "eval.column.outer",
    "eval.unary.not",
    "eval.unary.neg",
    "eval.binary.logic",
    "eval.binary.cmp",
    "eval.binary.arith",
    "eval.binary.concat",
    "eval.binary.like",
    "eval.binary.is",
    "eval.is_null",
    "eval.between",
    "eval.in_list",
    "eval.in_subquery",
    "eval.case.simple",
    "eval.case.searched",
    "eval.case.else",
    "eval.cast",
    "eval.func.scalar",
    "eval.func.aggregate",
    "eval.func.aggregate.distinct",
    "eval.exists",
    "eval.scalar_subquery",
    "eval.scalar_subquery.empty",
    "eval.quantified.any",
    "eval.quantified.all",
    "eval.subquery.cached",
    "eval.subquery.correlated",
)


@dataclass
class Frame:
    """One level of the row-scope chain."""

    schema: Schema
    row: tuple[SqlValue, ...]
    parent: "Frame | None" = None
    #: When set, aggregate functions range over these rows (one group).
    group_rows: list[tuple[SqlValue, ...]] | None = None


@dataclass
class EvalCtx:
    """Ambient evaluation context.

    ``clause`` and ``statement`` describe *where* the expression sits --
    the context-sensitivity lever for fault triggers (and the reason the
    same predicate can behave differently across clauses, which is what
    NoREC/DQE exploit and what the paper Section 4.2 discusses).
    """

    engine: "Engine"
    frame: Frame | None = None
    clause: str = "where"
    statement: str = "SELECT"
    relations: dict[str, Any] = field(default_factory=dict)
    in_subquery: bool = False
    depth: int = 0
    #: Statement-level facts (e.g. ``stmt_has_cte``) merged into every
    #: fault-site feature dict.
    flags: dict[str, Any] = field(default_factory=dict)

    # Direct positional construction: dataclasses.replace() pays for a
    # fields() walk plus a kwargs dict on every call, and these two run
    # inside the executor's row and group loops.

    def with_frame(self, frame: Frame | None) -> "EvalCtx":
        return EvalCtx(
            self.engine,
            frame,
            self.clause,
            self.statement,
            self.relations,
            self.in_subquery,
            self.depth,
            self.flags,
        )

    def with_clause(self, clause: str) -> "EvalCtx":
        return EvalCtx(
            self.engine,
            self.frame,
            clause,
            self.statement,
            self.relations,
            self.in_subquery,
            self.depth,
            self.flags,
        )


def _site_features(ctx: EvalCtx, expr: A.Expr, extra: dict | None = None) -> dict:
    features = dict(ctx.engine.node_features(expr))
    features.update(ctx.flags)
    features["clause"] = ctx.clause
    features["statement"] = ctx.statement
    features["in_subquery"] = ctx.in_subquery
    if extra:
        features.update(extra)
    return features


def evaluate(expr: A.Expr, ctx: EvalCtx) -> SqlValue:
    """Evaluate *expr* to a SQL value under *ctx*, one row at a time.

    This tree walker is MiniDB's only evaluator: the executor calls it
    once per row (or group) with the row bound in ``ctx.frame``.
    Expression-level fault sites fire on every evaluation, with the
    clause and subquery context in their features.
    """
    engine = ctx.engine
    mode = engine.mode
    if ctx.depth > 200:
        raise ValueError_("expression nesting too deep")

    if isinstance(expr, A.Literal):
        engine.cov("eval.literal")
        return expr.value

    if isinstance(expr, A.ColumnRef):
        return _resolve_column(expr, ctx)

    if isinstance(expr, A.Unary):
        if expr.op.upper() == "NOT":
            engine.cov("eval.unary.not")
            inner = V.truth(evaluate(expr.operand, ctx), mode)
            return V.not3(inner)
        engine.cov("eval.unary.neg")
        return V.negate(evaluate(expr.operand, ctx), mode)

    if isinstance(expr, A.Binary):
        return _eval_binary(expr, ctx)

    if isinstance(expr, A.IsNull):
        engine.cov("eval.is_null")
        value = evaluate(expr.operand, ctx)
        result: SqlValue = (value is not None) if expr.negated else (value is None)
        return result

    if isinstance(expr, A.Between):
        engine.cov("eval.between")
        operand = evaluate(expr.operand, ctx)
        low = evaluate(expr.low, ctx)
        high = evaluate(expr.high, ctx)
        lo_cmp = V.compare(operand, low, mode)
        hi_cmp = V.compare(operand, high, mode)
        ge_low: V.Ternary = None if lo_cmp is None else lo_cmp >= 0
        le_high: V.Ternary = None if hi_cmp is None else hi_cmp <= 0
        result = V.and3(ge_low, le_high)
        if expr.negated:
            result = V.not3(result)
        if engine.faults.has_site("between_result"):
            result = engine.faults.fire(
                "between_result",
                _site_features(ctx, expr, {"negated": expr.negated}),
                result,
            )
        return result

    if isinstance(expr, A.InList):
        engine.cov("eval.in_list")
        operand = evaluate(expr.operand, ctx)
        items = [evaluate(item, ctx) for item in expr.items]
        result = _in_semantics(operand, items, mode)
        if expr.negated:
            result = V.not3(result)
        if engine.faults.has_site("in_list_result"):
            result = engine.faults.fire(
                "in_list_result",
                _site_features(ctx, expr, {"negated": expr.negated, "rhs": "list"}),
                result,
            )
        return result

    if isinstance(expr, A.InSubquery):
        engine.cov("eval.in_subquery")
        operand = evaluate(expr.operand, ctx)
        rows = _subquery_rows(expr.query, ctx, require_columns=1)
        items = [row[0] for row in rows]
        result = _in_semantics(operand, items, mode)
        if expr.negated:
            result = V.not3(result)
        if engine.faults.has_site("in_subquery_result"):
            result = engine.faults.fire(
                "in_subquery_result",
                _site_features(
                    ctx, expr, {"negated": expr.negated, "rhs": "subquery"}
                ),
                result,
            )
        return result

    if isinstance(expr, A.Case):
        return _eval_case(expr, ctx)

    if isinstance(expr, A.Cast):
        engine.cov("eval.cast")
        target = _cast_target(expr.type_name)
        return V.cast(evaluate(expr.operand, ctx), target, mode)

    if isinstance(expr, A.FuncCall):
        return _eval_func(expr, ctx)

    if isinstance(expr, A.Exists):
        engine.cov("eval.exists")
        rows = _subquery_rows(expr.query, ctx, require_columns=None)
        result = len(rows) > 0
        if expr.negated:
            result = not result
        if engine.faults.has_site("exists_result"):
            result = engine.faults.fire(
                "exists_result",
                _site_features(ctx, expr, {"negated": expr.negated}),
                result,
            )
        return result

    if isinstance(expr, A.ScalarSubquery):
        engine.cov("eval.scalar_subquery")
        # Column count is validated from the result *schema*, not the
        # first row: a zero-row two-column subquery is still an error
        # (SQLite: "sub-select returns N columns - expected 1").
        rows = _subquery_rows(expr.query, ctx, require_columns=1)
        if not rows:
            engine.cov("eval.scalar_subquery.empty")
            value: SqlValue = None
        else:
            if len(rows) > 1:
                if engine.profile.scalar_subquery_multi_row == "error":
                    raise ValueError_("subquery returns more than 1 row")
            value = rows[0][0]
        if engine.faults.has_site("scalar_subquery"):
            correlated = engine.select_is_correlated(expr.query)
            value = engine.faults.fire(
                "scalar_subquery",
                _site_features(ctx, expr, {"correlated": correlated}),
                value,
            )
        return value

    if isinstance(expr, A.Quantified):
        return _eval_quantified(expr, ctx)

    raise ValueError_(f"cannot evaluate expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Node-specific helpers
# ---------------------------------------------------------------------------


def _resolve_column(ref: A.ColumnRef, ctx: EvalCtx) -> SqlValue:
    frame = ctx.frame
    outer = False
    while frame is not None:
        matches = frame.schema.matches(ref.table, ref.column)
        if len(matches) == 1:
            ctx.engine.cov("eval.column.outer" if outer else "eval.column")
            return frame.row[matches[0]]
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column name: {ref.to_sql()}")
        frame = frame.parent
        outer = True
    raise CatalogError(f"no such column: {ref.to_sql()}")


_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_ARITH_OPS = {"+", "-", "*", "/", "%"}


def _cmp_result(op: str, c: int) -> bool:
    if op == "=":
        return c == 0
    if op == "!=":
        return c != 0
    if op == "<":
        return c < 0
    if op == "<=":
        return c <= 0
    if op == ">":
        return c > 0
    return c >= 0


def _eval_binary(expr: A.Binary, ctx: EvalCtx) -> SqlValue:
    engine = ctx.engine
    mode = engine.mode
    op = expr.op

    if op == "AND":
        engine.cov("eval.binary.logic")
        left = V.truth(evaluate(expr.left, ctx), mode)
        if left is False:
            return False
        right = V.truth(evaluate(expr.right, ctx), mode)
        return V.and3(left, right)
    if op == "OR":
        engine.cov("eval.binary.logic")
        left = V.truth(evaluate(expr.left, ctx), mode)
        if left is True:
            return True
        right = V.truth(evaluate(expr.right, ctx), mode)
        return V.or3(left, right)

    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)

    if op in _CMP_OPS:
        engine.cov("eval.binary.cmp")
        c = V.compare(left, right, mode)
        if c is None:
            return None
        return _cmp_result(op, c)
    if op in _ARITH_OPS:
        engine.cov("eval.binary.arith")
        return V.arith(op, left, right, mode)
    if op == "||":
        engine.cov("eval.binary.concat")
        return V.concat(left, right)
    if op in ("LIKE", "NOT LIKE"):
        engine.cov("eval.binary.like")
        result = V.like(left, right, mode)
        if op == "NOT LIKE":
            result = V.not3(result)
        if engine.faults.has_site("like_result"):
            result = engine.faults.fire(
                "like_result",
                _site_features(ctx, expr, {"negated": op != "LIKE"}),
                result,
            )
        return result
    if op in ("IS", "IS NOT"):
        engine.cov("eval.binary.is")
        same = V.distinct_eq(left, right)
        return same if op == "IS" else not same
    raise ValueError_(f"unknown binary operator {op!r}")


def _in_semantics(
    operand: SqlValue, items: list[SqlValue], mode: TypingMode
) -> V.Ternary:
    """Three-valued IN: TRUE if any match, NULL if no match but NULLs
    present (either side), FALSE otherwise.  Over the *empty* set the
    result is FALSE even for a NULL operand (there is nothing to
    compare) -- the semantics the folded ``IN ()`` replacement relies on.
    """
    if not items:
        return False
    saw_null = operand is None
    for item in items:
        eq = V.eq3(operand, item, mode)
        if eq is True:
            return True
        if eq is None:
            saw_null = True
    return None if saw_null else False


def _eval_case(expr: A.Case, ctx: EvalCtx) -> SqlValue:
    engine = ctx.engine
    mode = engine.mode
    if expr.operand is not None:
        engine.cov("eval.case.simple")
        subject = evaluate(expr.operand, ctx)
        for arm in expr.whens:
            if V.eq3(subject, evaluate(arm.condition, ctx), mode) is True:
                value = evaluate(arm.result, ctx)
                return _fire_case(engine, ctx, expr, "simple", value)
    else:
        engine.cov("eval.case.searched")
        for arm in expr.whens:
            if V.truth(evaluate(arm.condition, ctx), mode) is True:
                value = evaluate(arm.result, ctx)
                return _fire_case(engine, ctx, expr, "searched", value)
    engine.cov("eval.case.else")
    value = evaluate(expr.else_, ctx) if expr.else_ is not None else None
    return _fire_case(engine, ctx, expr, "else", value)


def _fire_case(
    engine: "Engine", ctx: EvalCtx, expr: A.Case, form: str, value: SqlValue
) -> SqlValue:
    if engine.faults.has_site("case_result"):
        value = engine.faults.fire(
            "case_result", _site_features(ctx, expr, {"form": form}), value
        )
    return value


_CAST_TARGETS = {
    "INT": SqlType.INTEGER,
    "INTEGER": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "INT4": SqlType.INTEGER,
    "INT8": SqlType.INTEGER,
    "REAL": SqlType.REAL,
    "FLOAT": SqlType.REAL,
    "DOUBLE": SqlType.REAL,
    "TEXT": SqlType.TEXT,
    "VARCHAR": SqlType.TEXT,
    "STRING": SqlType.TEXT,
    "BOOL": SqlType.BOOLEAN,
    "BOOLEAN": SqlType.BOOLEAN,
}


def _cast_target(name: str) -> SqlType:
    target = _CAST_TARGETS.get(name.upper())
    if target is None:
        raise ValueError_(f"unknown CAST target type {name!r}")
    return target


def _eval_func(expr: A.FuncCall, ctx: EvalCtx) -> SqlValue:
    engine = ctx.engine
    name = expr.name.upper()
    frame = ctx.frame

    if name in AGGREGATE_NAMES:
        group_rows = frame.group_rows if frame is not None else None
        if group_rows is not None:
            return _eval_aggregate(expr, ctx, group_rows)
        if name in VARIADIC_MINMAX and (len(expr.args) >= 2):
            engine.cov("eval.func.scalar")
            args = [evaluate(a, ctx) for a in expr.args]
            return VARIADIC_MINMAX[name](args, engine.mode)
        raise ValueError_(f"misuse of aggregate function {name}()")

    engine.cov("eval.func.scalar")
    args = [evaluate(a, ctx) for a in expr.args]
    return call_scalar(name, args, engine.mode)


def _eval_aggregate(
    expr: A.FuncCall, ctx: EvalCtx, group_rows: list[tuple[SqlValue, ...]]
) -> SqlValue:
    engine = ctx.engine
    name = expr.name.upper()
    engine.cov("eval.func.aggregate")
    assert ctx.frame is not None

    if expr.star:
        if name != "COUNT":
            raise ValueError_(f"{name}(*) is not valid")
        value: SqlValue = len(group_rows)
        return _agg_finish(expr, ctx, value, sorted_input=True)

    if len(expr.args) != 1:
        raise ValueError_(f"aggregate {name}() takes exactly one argument")
    arg = expr.args[0]

    collected: list[SqlValue] = []
    # One frame/ctx pair reused across the group's rows: nothing retains
    # the frame past each evaluate() call, so mutating ``inner.row`` is
    # safe and avoids two dataclass allocations per row.
    inner = Frame(ctx.frame.schema, ctx.frame.row, ctx.frame.parent, group_rows=None)
    inner_ctx = ctx.with_frame(inner)
    for row in group_rows:
        inner.row = row
        collected.append(evaluate(arg, inner_ctx))

    non_null = [v for v in collected if v is not None]
    if expr.distinct:
        engine.cov("eval.func.aggregate.distinct")
        seen: set = set()
        uniq: list[SqlValue] = []
        for v in non_null:
            key = V.sort_key(v)
            if key not in seen:
                seen.add(key)
                uniq.append(v)
        non_null = uniq

    sorted_input = all(
        V.sort_key(a) <= V.sort_key(b) for a, b in zip(non_null, non_null[1:])
    )

    if name == "COUNT":
        return _agg_finish(expr, ctx, len(non_null), sorted_input)
    if name == "SUM" or name == "TOTAL":
        if not non_null:
            return _agg_finish(expr, ctx, 0.0 if name == "TOTAL" else None, True)
        total: int | float = 0
        for v in non_null:
            total = V.arith("+", total, v, engine.mode)  # type: ignore[assignment]
        if name == "TOTAL":
            total = float(total)
        return _agg_finish(expr, ctx, total, sorted_input)
    if name == "AVG":
        if not non_null:
            return _agg_finish(expr, ctx, None, True)
        total = 0.0
        for v in non_null:
            total = V.arith("+", total, v, engine.mode)  # type: ignore[assignment]
        return _agg_finish(expr, ctx, float(total) / len(non_null), sorted_input)
    if name in ("MIN", "MAX"):
        if not non_null:
            return _agg_finish(expr, ctx, None, True)
        best = non_null[0]
        for v in non_null[1:]:
            c = V.compare(v, best, engine.mode)
            if c is None:
                # Incomparable non-NULL values are a typed (expected)
                # error, never an assertion: campaigns must count this
                # as an unsuccessful query, not an engine bug.
                raise TypeError_(
                    f"cannot order {V.type_of(v)} against "
                    f"{V.type_of(best)} in {name}()"
                )
            if (c < 0) if name == "MIN" else (c > 0):
                best = v
        return _agg_finish(expr, ctx, best, sorted_input)
    raise ValueError_(f"unknown aggregate {name}()")


def _agg_finish(
    expr: A.FuncCall, ctx: EvalCtx, value: SqlValue, sorted_input: bool
) -> SqlValue:
    if not ctx.engine.faults.has_site("agg_finish"):
        return value
    arg_is_compound = bool(expr.args) and not isinstance(expr.args[0], A.ColumnRef)
    return ctx.engine.faults.fire(
        "agg_finish",
        _site_features(
            ctx,
            expr,
            {
                "func": expr.name.upper(),
                "distinct": expr.distinct,
                "arg_is_compound": arg_is_compound,
                "input_sorted": sorted_input,
            },
        ),
        value,
    )


def _eval_quantified(expr: A.Quantified, ctx: EvalCtx) -> SqlValue:
    engine = ctx.engine
    mode = engine.mode
    if not engine.profile.supports_any_all:
        raise UnsupportedError("ANY/ALL operators are not supported")
    quant = expr.quantifier.upper()
    engine.cov("eval.quantified.any" if quant in ("ANY", "SOME") else "eval.quantified.all")
    operand = evaluate(expr.operand, ctx)
    rows = _subquery_rows(expr.query, ctx, require_columns=1)
    value = _quantified_value(expr, operand, rows, mode)
    if engine.faults.has_site("quantified_result"):
        value = engine.faults.fire(
            "quantified_result",
            _site_features(ctx, expr, {"quantifier": quant}),
            value,
        )
    return value


def _quantified_value(
    expr: A.Quantified,
    operand: SqlValue,
    rows: list[tuple[SqlValue, ...]],
    mode: TypingMode,
) -> V.Ternary:
    """ANY/ALL fold of *operand* against the subquery rows."""
    quant = expr.quantifier.upper()
    op = expr.op
    results: list[V.Ternary] = []
    for row in rows:
        c = V.compare(operand, row[0], mode)
        if c is None:
            results.append(None)
            continue
        if op not in _CMP_OPS:
            raise ValueError_(f"unsupported quantified operator {op!r}")
        results.append(_cmp_result(op, c))
    if quant in ("ANY", "SOME"):
        if any(r is True for r in results):
            return True
        if any(r is None for r in results):
            return None
        return False
    if any(r is False for r in results):
        return False
    if any(r is None for r in results):
        return None
    return True


def _subquery_rows(
    query: A.Select, ctx: EvalCtx, require_columns: int | None
) -> list[tuple[SqlValue, ...]]:
    """Execute a subquery in the current scope and return its rows."""
    engine = ctx.engine
    correlated = engine.select_is_correlated(query)
    if correlated:
        engine.cov("eval.subquery.correlated")
    result = engine.execute_subquery(query, ctx)
    # Validated from the result schema, not the first row: the column
    # count of a zero-row result is still observable (SQLite raises
    # "sub-select returns N columns" regardless of cardinality).
    if require_columns is not None and len(result.columns) != require_columns:
        raise ValueError_(f"operand should contain {require_columns} column(s)")
    return result.rows
