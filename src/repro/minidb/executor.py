"""Plan execution for MiniDB.

Row-at-a-time interpreter over :class:`~repro.minidb.plan.SelectPlan`.
All joins are nested loops (tables are small in testing workloads); outer
joins null-extend the non-preserved side.  Fault hooks fire at the sites
documented in :mod:`repro.minidb.faults`.  A row-loop site (WHERE, JOIN
ON, HAVING, fetch) has one feature dict for the whole loop, so which
faults hold there is decided once per loop
(:meth:`~repro.minidb.faults.FaultInjector.matching`) and applied per
row.  Coverage probes tag each executed operator so campaigns can report
branch coverage (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SqlError, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb.coverage import register_tags
from repro.minidb.evaluator import EvalCtx, Frame, evaluate
from repro.minidb.plan import (
    CteScan,
    JoinPlan,
    ScanPlan,
    Schema,
    SelectPlan,
    SourcePlan,
    SubplanScan,
    ValuesScanPlan,
)
from repro.minidb.planner import validate_limit
from repro.minidb.values import SqlValue, row_sort_key, truth

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.engine import Engine

register_tags(
    "exec.scan",
    "exec.scan.index",
    "exec.subplan",
    "exec.cte",
    "exec.values",
    "exec.join.inner",
    "exec.join.cross",
    "exec.join.left",
    "exec.join.left.null_extend",
    "exec.join.right",
    "exec.join.right.null_extend",
    "exec.join.full",
    "exec.join.full.null_extend",
    "exec.filter.keep",
    "exec.filter.drop",
    "exec.filter.const_false",
    "exec.group",
    "exec.group.empty_input",
    "exec.group.implicit",
    "exec.having.keep",
    "exec.having.drop",
    "exec.project",
    "exec.distinct",
    "exec.union",
    "exec.union_all",
    "exec.intersect",
    "exec.except",
    "exec.order",
    "exec.order.positional",
    "exec.order.alias",
    "exec.limit",
    "exec.offset",
    "exec.no_from",
)

Row = tuple[SqlValue, ...]


@dataclass
class Materialized:
    """A fully computed relation."""

    columns: list[str]
    rows: list[Row]


def execute_select(plan: SelectPlan, ctx: EvalCtx) -> Materialized:
    """Execute a planned SELECT, returning its materialized result."""
    engine = ctx.engine

    if plan.ctes:
        relations = dict(ctx.relations)
        for name, columns, body in plan.ctes:
            if isinstance(body, SelectPlan):
                mat = execute_select(body, ctx_with_relations(ctx, relations))
                if len(columns) != len(mat.columns):
                    raise SqlError(f"CTE {name} column list mismatch")
                relations[name.lower()] = Materialized(list(columns), mat.rows)
            else:  # tuple of VALUES rows
                rows = _eval_values_rows(body, ctx, len(columns))
                relations[name.lower()] = Materialized(list(columns), rows)
        ctx = ctx_with_relations(ctx, relations)

    core = _execute_core(plan, ctx)

    if plan.set_op is not None:
        op, all_, rhs_plan = plan.set_op
        rhs = execute_select(rhs_plan, ctx)
        core = _apply_set_op(op, all_, core, rhs, ctx)

    rows = core.rows
    if plan.order_by:
        rows = _apply_order(plan, core, ctx)
    rows = _apply_limit_offset(plan, rows, ctx)
    return Materialized(core.columns, rows)


def ctx_with_relations(ctx: EvalCtx, relations: dict) -> EvalCtx:
    return EvalCtx(
        ctx.engine,
        ctx.frame,
        ctx.clause,
        ctx.statement,
        relations,
        ctx.in_subquery,
        ctx.depth,
        ctx.flags,
    )


# ---------------------------------------------------------------------------
# Core (source -> filter -> group -> project -> distinct)
# ---------------------------------------------------------------------------


def _execute_core(plan: SelectPlan, ctx: EvalCtx) -> Materialized:
    engine = ctx.engine
    columns = plan.out_columns

    if plan.source is None:
        engine.cov("exec.no_from")
        source_schema = Schema(())
        source_rows: list[Row] = [()]
    else:
        source_schema, source_rows = _execute_source(plan.source, ctx)

    # WHERE
    if plan.where_const_false:
        engine.cov("exec.filter.const_false")
        source_rows = []
    elif plan.where is not None:
        source_rows = _filter_rows(
            plan.where, plan.where_features, source_schema, source_rows, ctx
        )

    if plan.has_aggregates:
        out_rows, frames = _execute_grouped(plan, source_schema, source_rows, ctx)
    else:
        out_rows, frames = _execute_projection(plan, source_schema, source_rows, ctx)

    if plan.distinct:
        engine.cov("exec.distinct")
        out_rows, frames = _distinct(out_rows, frames)
        out_rows = engine.faults.fire(
            "distinct_rows",
            {"statement": ctx.statement, "clause": "distinct"},
            out_rows,
        )

    mat = Materialized(columns, out_rows)
    mat_frames = frames if len(frames) == len(out_rows) else None
    return _FramedRows(mat, mat_frames)


class _FramedRows(Materialized):
    """Materialized rows plus the per-row frames ORDER BY may need."""

    def __init__(self, mat: Materialized, frames: list[Frame] | None) -> None:
        super().__init__(mat.columns, mat.rows)
        self.frames = frames


def _filter_rows(
    where: A.Expr,
    features: dict,
    schema: Schema,
    rows: list[Row],
    ctx: EvalCtx,
) -> list[Row]:
    engine = ctx.engine
    faults = engine.faults
    site = {
        "SELECT": "where_result",
        "UPDATE": "update_where_result",
        "DELETE": "delete_where_result",
        "INSERT_SELECT": "where_result",
    }.get(ctx.statement, "where_result")
    matched = ()
    if faults.has_site(site):
        fire_features = dict(features)
        fire_features.update(ctx.flags)
        fire_features["statement"] = ctx.statement
        fire_features["clause"] = "where"
        fire_features["in_subquery"] = ctx.in_subquery
        matched = faults.matching(site, fire_features)
    mode = engine.mode

    kept: list[Row] = []
    # One frame/ctx pair reused across rows: nothing retains the frame
    # past each evaluate() call, so mutating ``frame.row`` is safe and
    # avoids two dataclass allocations per row.
    frame = Frame(schema, (), ctx.frame)
    where_ctx = ctx.with_clause("where").with_frame(frame)
    for row in rows:
        frame.row = row
        verdict = truth(evaluate(where, where_ctx), mode)
        if matched:
            verdict = faults.apply(matched, verdict)
        if verdict is True:
            engine.cov("exec.filter.keep")
            kept.append(row)
        else:
            engine.cov("exec.filter.drop")
    return kept


def _execute_projection(
    plan: SelectPlan, schema: Schema, rows: list[Row], ctx: EvalCtx
) -> tuple[list[Row], list[Frame]]:
    engine = ctx.engine
    engine.cov("exec.project")
    # Per-row frames are only ever consumed by non-positional ORDER BY
    # (via _FramedRows.frames); skip building them otherwise.
    need_frames = bool(plan.order_by)
    faults = engine.faults
    item_faults = _fetch_faults(plan, ctx)

    fetch_ctx = ctx.with_clause("fetch")
    out: list[Row] = []
    frames: list[Frame] = []
    if need_frames:
        for row in rows:
            frame = Frame(schema, row, ctx.frame)
            item_ctx = fetch_ctx.with_frame(frame)
            values = []
            for item, matched in zip(plan.items, item_faults):
                value = evaluate(item.expr, item_ctx)
                if matched:
                    value = faults.apply(matched, value)
                values.append(value)
            out.append(tuple(values))
            frames.append(frame)
        return out, frames
    frame = Frame(schema, (), ctx.frame)
    item_ctx = fetch_ctx.with_frame(frame)
    for row in rows:
        frame.row = row
        values = []
        for item, matched in zip(plan.items, item_faults):
            value = evaluate(item.expr, item_ctx)
            if matched:
                value = faults.apply(matched, value)
            values.append(value)
        out.append(tuple(values))
    return out, frames


def _fetch_faults(plan: SelectPlan, ctx: EvalCtx) -> list[tuple]:
    """The ``fetch_value`` faults that hold for each projected item,
    decided once per loop (an item's site features do not vary by row
    or group)."""
    faults = ctx.engine.faults
    if not faults.has_site("fetch_value"):
        return [()] * len(plan.items)
    return [
        faults.matching(
            "fetch_value",
            {
                **item.features,
                "statement": ctx.statement,
                "clause": "fetch",
                "in_subquery": ctx.in_subquery,
            },
        )
        for item in plan.items
    ]


def _execute_grouped(
    plan: SelectPlan, schema: Schema, rows: list[Row], ctx: EvalCtx
) -> tuple[list[Row], list[Frame]]:
    engine = ctx.engine
    engine.cov("exec.group")

    groups: list[list[Row]]
    if plan.group_by:
        frame = Frame(schema, (), ctx.frame)
        row_ctx = ctx.with_clause("group_by").with_frame(frame)
        keyed: dict[tuple, list[Row]] = {}
        for row in rows:
            frame.row = row
            key = tuple(
                row_sort_key((evaluate(e, row_ctx),)) for e in plan.group_by
            )
            keyed.setdefault(key, []).append(row)
        groups = list(keyed.values())
        if not rows:
            engine.cov("exec.group.empty_input")
    else:
        engine.cov("exec.group.implicit")
        groups = [rows]  # single (possibly empty) group

    groups = engine.faults.fire(
        "group_rows",
        {
            "statement": ctx.statement,
            "clause": "group_by",
            "explicit": bool(plan.group_by),
            "group_count": len(groups),
        },
        groups,
    )

    out: list[Row] = []
    frames: list[Frame] = []
    width = len(schema)
    faults = engine.faults
    having_faults = ()
    if plan.having is not None and faults.has_site("having_result"):
        having_faults = faults.matching(
            "having_result",
            {
                **plan.having_features,
                **ctx.flags,
                "statement": ctx.statement,
                "clause": "having",
                "in_subquery": ctx.in_subquery,
            },
        )
    item_faults = _fetch_faults(plan, ctx)
    having_ctx = ctx.with_clause("having")
    fetch_ctx = ctx.with_clause("fetch")
    for group in groups:
        rep = group[0] if group else tuple([None] * width)
        # One fresh frame per *group* (retained in ``frames``), not per
        # row -- the group's rows are carried via ``group_rows``.
        frame = Frame(schema, rep, ctx.frame, group_rows=group)
        if plan.having is not None:
            verdict = truth(
                evaluate(plan.having, having_ctx.with_frame(frame)),
                engine.mode,
            )
            if having_faults:
                verdict = faults.apply(having_faults, verdict)
            if verdict is not True:
                engine.cov("exec.having.drop")
                continue
            engine.cov("exec.having.keep")
        item_ctx = fetch_ctx.with_frame(frame)
        values = []
        for item, matched in zip(plan.items, item_faults):
            value = evaluate(item.expr, item_ctx)
            if matched:
                value = faults.apply(matched, value)
            values.append(value)
        out.append(tuple(values))
        frames.append(frame)
    return out, frames


def _distinct(
    rows: list[Row], frames: list[Frame]
) -> tuple[list[Row], list[Frame]]:
    seen: set = set()
    out_rows: list[Row] = []
    out_frames: list[Frame] = []
    paired = len(frames) == len(rows)
    for i, row in enumerate(rows):
        key = row_sort_key(row)
        if key in seen:
            continue
        seen.add(key)
        out_rows.append(row)
        if paired:
            out_frames.append(frames[i])
    return out_rows, out_frames


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def _execute_source(source: SourcePlan, ctx: EvalCtx) -> tuple[Schema, list[Row]]:
    engine = ctx.engine
    if isinstance(source, ScanPlan):
        engine.cov("exec.scan")
        if source.access_path == "index_scan":
            engine.cov("exec.scan.index")
        table = engine.database.get_table(source.table_name)
        if len(table.columns) != len(source.schema):
            raise SqlError(f"table {table.name} changed shape since planning")
        return source.schema, list(table.rows)
    if isinstance(source, SubplanScan):
        engine.cov("exec.subplan")
        inner_ctx = ctx.with_frame(None)
        mat = execute_select(source.plan, inner_ctx)
        if len(mat.columns) != len(source.schema):
            raise SqlError("derived table width mismatch")
        return source.schema, mat.rows
    if isinstance(source, CteScan):
        engine.cov("exec.cte")
        mat = ctx.relations.get(source.name.lower())
        if mat is None:
            raise SqlError(f"unknown CTE {source.name}")
        return source.schema, list(mat.rows)
    if isinstance(source, ValuesScanPlan):
        engine.cov("exec.values")
        rows = _eval_values_rows(source.rows, ctx, len(source.schema))
        return source.schema, rows
    if isinstance(source, JoinPlan):
        return _execute_join(source, ctx)
    raise SqlError(f"unknown source plan {type(source).__name__}")


def _eval_values_rows(
    rows_exprs: tuple[tuple[A.Expr, ...], ...], ctx: EvalCtx, width: int
) -> list[Row]:
    values_ctx = ctx.with_clause("values").with_frame(None)
    rows: list[Row] = []
    for row_exprs in rows_exprs:
        if len(row_exprs) != width:
            raise SqlError("VALUES row width mismatch")
        rows.append(tuple(evaluate(e, values_ctx) for e in row_exprs))
    return ctx.engine.faults.fire(
        "values_rows", {"statement": ctx.statement, "clause": "values"}, rows
    )


def _execute_join(join: JoinPlan, ctx: EvalCtx) -> tuple[Schema, list[Row]]:
    engine = ctx.engine
    left_schema, left_rows = _execute_source(join.left, ctx)
    right_schema, right_rows = _execute_source(join.right, ctx)
    schema = join.schema
    left_width = len(left_schema)
    right_width = len(right_schema)

    # Frame/ctx and the fault decision hoisted out of the nested loops;
    # the frame is reused by mutating ``row`` (nothing retains it past
    # evaluate()).
    faults = engine.faults
    on_faults = ()
    if join.on is not None and faults.has_site("join_on_result"):
        on_faults = faults.matching(
            "join_on_result",
            {
                **join.on_features,
                **ctx.flags,
                "statement": ctx.statement,
                "clause": "join_on",
                "in_subquery": ctx.in_subquery,
            },
        )
    on_frame = Frame(schema, (), ctx.frame)
    on_ctx = ctx.with_frame(on_frame).with_clause("join_on")
    mode = engine.mode

    def on_matches(combined: Row) -> bool:
        if join.on is None:
            return True
        on_frame.row = combined
        verdict = truth(evaluate(join.on, on_ctx), mode)
        if on_faults:
            verdict = faults.apply(on_faults, verdict)
        return verdict is True

    rows: list[Row] = []
    kind = join.kind

    if kind in ("INNER", "CROSS"):
        engine.cov("exec.join.cross" if kind == "CROSS" else "exec.join.inner")
        for lrow in left_rows:
            for rrow in right_rows:
                combined = lrow + rrow
                if on_matches(combined):
                    rows.append(combined)
        return schema, rows

    if kind == "LEFT":
        engine.cov("exec.join.left")
        null_right = tuple([None] * right_width)
        for lrow in left_rows:
            matched = False
            for rrow in right_rows:
                combined = lrow + rrow
                if on_matches(combined):
                    rows.append(combined)
                    matched = True
            if not matched:
                engine.cov("exec.join.left.null_extend")
                rows.append(lrow + null_right)
        return schema, rows

    if kind == "RIGHT":
        engine.cov("exec.join.right")
        null_left = tuple([None] * left_width)
        for rrow in right_rows:
            matched = False
            for lrow in left_rows:
                combined = lrow + rrow
                if on_matches(combined):
                    rows.append(combined)
                    matched = True
            if not matched:
                engine.cov("exec.join.right.null_extend")
                rows.append(null_left + rrow)
        return schema, rows

    if kind == "FULL":
        engine.cov("exec.join.full")
        null_right = tuple([None] * right_width)
        null_left = tuple([None] * left_width)
        matched_right: set[int] = set()
        for lrow in left_rows:
            matched = False
            for ri, rrow in enumerate(right_rows):
                combined = lrow + rrow
                if on_matches(combined):
                    rows.append(combined)
                    matched = True
                    matched_right.add(ri)
            if not matched:
                engine.cov("exec.join.full.null_extend")
                rows.append(lrow + null_right)
        for ri, rrow in enumerate(right_rows):
            if ri not in matched_right:
                engine.cov("exec.join.full.null_extend")
                rows.append(null_left + rrow)
        return schema, rows

    raise SqlError(f"unknown join kind {kind!r}")


# ---------------------------------------------------------------------------
# Set operations, ORDER BY, LIMIT
# ---------------------------------------------------------------------------


def _apply_set_op(
    op: str, all_: bool, left: Materialized, right: Materialized, ctx: EvalCtx
) -> Materialized:
    engine = ctx.engine
    if len(left.columns) != len(right.columns):
        raise SqlError("set operation column count mismatch")
    if op == "UNION":
        if all_:
            engine.cov("exec.union_all")
            rows = left.rows + right.rows
        else:
            engine.cov("exec.union")
            rows, _ = _distinct(left.rows + right.rows, [])
    elif op == "INTERSECT":
        engine.cov("exec.intersect")
        right_keys = {row_sort_key(r) for r in right.rows}
        rows, _ = _distinct(
            [r for r in left.rows if row_sort_key(r) in right_keys], []
        )
    elif op == "EXCEPT":
        engine.cov("exec.except")
        right_keys = {row_sort_key(r) for r in right.rows}
        rows, _ = _distinct(
            [r for r in left.rows if row_sort_key(r) not in right_keys], []
        )
    else:
        raise SqlError(f"unknown set operation {op!r}")
    return Materialized(left.columns, rows)


def _apply_order(plan: SelectPlan, core: Materialized, ctx: EvalCtx) -> list[Row]:
    engine = ctx.engine
    engine.cov("exec.order")
    frames = getattr(core, "frames", None)
    rows = core.rows
    columns_lower = [c.lower() for c in core.columns]

    def key_for(i: int, row: Row) -> tuple:
        keys: list[tuple] = []
        for item in plan.order_by:
            expr = item.expr
            value: SqlValue
            if isinstance(expr, A.Literal) and isinstance(expr.value, int) and not isinstance(expr.value, bool):
                engine.cov("exec.order.positional")
                pos = expr.value
                if not (1 <= pos <= len(row)):
                    raise ValueError_(f"ORDER BY position {pos} out of range")
                value = row[pos - 1]
            elif (
                isinstance(expr, A.ColumnRef)
                and expr.table is None
                and expr.column.lower() in columns_lower
            ):
                engine.cov("exec.order.alias")
                value = row[columns_lower.index(expr.column.lower())]
            elif frames is not None:
                frame = frames[i]
                value = evaluate(
                    expr, ctx.with_frame(frame).with_clause("order_by")
                )
            else:
                raise SqlError(
                    "ORDER BY term must be an output column or position here"
                )
            k = row_sort_key((value,))
            keys.append(k if item.ascending else _Reversed(k))
        return tuple(keys)

    order_rows = sorted(
        range(len(rows)), key=lambda i: key_for(i, rows[i])
    )
    result = [rows[i] for i in order_rows]
    return engine.faults.fire(
        "order_rows", {"statement": ctx.statement, "clause": "order_by"}, result
    )


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _apply_limit_offset(plan: SelectPlan, rows: list[Row], ctx: EvalCtx) -> list[Row]:
    engine = ctx.engine
    if plan.limit is None and plan.offset is None:
        return rows
    limit_ctx = ctx.with_frame(None).with_clause("limit")
    offset = 0
    if plan.offset is not None:
        engine.cov("exec.offset")
        off_val = validate_limit(evaluate(plan.offset, limit_ctx))
        offset = max(0, off_val if off_val is not None else 0)
    out = rows[offset:]
    if plan.limit is not None:
        engine.cov("exec.limit")
        lim = validate_limit(evaluate(plan.limit, limit_ctx))
        if lim is not None and lim >= 0:
            out = out[:lim]
    return engine.faults.fire(
        "limit_rows", {"statement": ctx.statement, "clause": "limit"}, out
    )
