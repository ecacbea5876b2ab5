"""AST -> logical plan translation (with optimizer passes) for MiniDB.

The planner performs the optimizations the paper's bug classes live in:

* **constant folding of WHERE clauses** -- a constant-false predicate
  short-circuits the scan entirely, which is why a CODDTest-folded query
  (``WHERE 0``) executes a genuinely different code path than the original
  (paper Listing 1 discussion);
* **access-path selection** -- an index whose leading expression appears
  in the predicate (or an explicit ``INDEXED BY`` hint) switches the scan
  to an index path, a precondition of several injected faults;
* **projection expansion** -- ``*`` and ``t.*`` resolved at plan time.

Every statement is planned afresh.  The only plan reuse is within one
statement: the engine plans each nested SELECT once
(``Engine._subplan_cache``, cleared at the start of every statement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CatalogError, SqlError, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb.coverage import register_tags
from repro.minidb.faults import expr_features
from repro.minidb.functions import AGGREGATE_NAMES
from repro.minidb.plan import (
    CteScan,
    JoinPlan,
    PlannedItem,
    ScanPlan,
    Schema,
    SelectPlan,
    SourcePlan,
    SubplanScan,
    ValuesScanPlan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.engine import Engine

register_tags(
    "plan.scan.full",
    "plan.scan.index",
    "plan.scan.indexed_by",
    "plan.view",
    "plan.cte",
    "plan.derived",
    "plan.values",
    "plan.join",
    "plan.where.const_false",
    "plan.where.const_true",
    "plan.where.kept",
    "plan.group_by",
    "plan.having",
    "plan.distinct",
    "plan.set_op",
    "plan.order_by",
    "plan.limit",
    "plan.star",
    "plan.aggregate",
)


def plan_select(
    select: A.Select,
    engine: "Engine",
    cte_env: dict[str, tuple[str, ...]] | None = None,
) -> SelectPlan:
    """Plan a SELECT statement against the engine's catalog."""
    cte_env = dict(cte_env or {})

    planned_ctes: list[tuple[str, tuple[str, ...], SelectPlan | tuple]] = []
    for cte in select.ctes:
        if isinstance(cte.query, A.ValuesSource):
            rows = cte.query.rows
            width = len(rows[0]) if rows else 0
            columns = cte.columns or tuple(f"column{i + 1}" for i in range(width))
            planned_ctes.append((cte.name, columns, rows))
        else:
            body = plan_select(cte.query, engine, cte_env)
            columns = cte.columns or tuple(body.out_columns)
            planned_ctes.append((cte.name, columns, body))
        cte_env[cte.name.lower()] = planned_ctes[-1][1]

    source = None
    if select.from_clause is not None:
        source = _plan_source(select.from_clause, engine, cte_env)

    where = select.where
    where_features = (
        dict(engine.node_features(where)) if where is not None else {}
    )
    where_const_false = where_const_true = False
    if where is not None and where_features.get("is_constant"):
        verdict = _try_fold_constant_predicate(where, engine)
        if verdict is True:
            engine.cov("plan.where.const_true")
            where_const_true = True
            where = None
        elif verdict is False:
            engine.cov("plan.where.const_false")
            where_const_false = True
            where = None
    if where is not None:
        engine.cov("plan.where.kept")

    if source is not None and where is not None:
        _choose_access_paths(source, where, engine)
    _annotate_source_features(source, where_features)

    has_aggregates = _items_have_aggregates(select) or bool(select.group_by)
    if has_aggregates:
        engine.cov("plan.aggregate")
    if select.group_by:
        engine.cov("plan.group_by")
    if select.having is not None:
        engine.cov("plan.having")
    if select.distinct:
        engine.cov("plan.distinct")
    if select.order_by:
        engine.cov("plan.order_by")
    if select.limit is not None:
        engine.cov("plan.limit")

    items = _plan_items(select.items, source, engine)

    set_op = None
    if select.set_op is not None:
        engine.cov("plan.set_op")
        op, all_, rhs = select.set_op
        rhs_plan = plan_select(rhs, engine, cte_env)
        if len(rhs_plan.items) != len(items):
            raise SqlError(
                "SELECTs to the left and right of a set operation "
                "do not have the same number of result columns"
            )
        set_op = (op, all_, rhs_plan)

    having_features = (
        dict(engine.node_features(select.having))
        if select.having is not None
        else {}
    )
    return SelectPlan(
        source=source,
        where=where,
        where_features=where_features,
        group_by=select.group_by,
        having=select.having,
        having_features=having_features,
        items=items,
        distinct=select.distinct,
        order_by=select.order_by,
        limit=select.limit,
        offset=select.offset,
        set_op=set_op,
        ctes=tuple(planned_ctes),
        has_aggregates=has_aggregates,
        where_const_false=where_const_false,
        where_const_true=where_const_true,
    )


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------


def _plan_source(
    ref: A.TableRef, engine: "Engine", cte_env: dict[str, tuple[str, ...]]
) -> SourcePlan:
    if isinstance(ref, A.NamedTable):
        return _plan_named(ref, engine, cte_env)
    if isinstance(ref, A.DerivedTable):
        engine.cov("plan.derived")
        sub = plan_select(ref.query, engine, cte_env)
        columns = list(ref.column_aliases) or sub.out_columns
        if ref.column_aliases and len(ref.column_aliases) != len(sub.out_columns):
            raise SqlError("column alias list does not match derived table width")
        schema = Schema(tuple((ref.alias, c) for c in columns))
        return SubplanScan(sub, ref.alias, schema, origin="derived")
    if isinstance(ref, A.ValuesTable):
        engine.cov("plan.values")
        width = len(ref.rows[0]) if ref.rows else 0
        for row in ref.rows:
            if len(row) != width:
                raise SqlError("VALUES rows have differing widths")
        columns = list(ref.column_aliases) or [
            f"column{i + 1}" for i in range(width)
        ]
        if len(columns) != width:
            raise SqlError("VALUES column alias list does not match row width")
        schema = Schema(tuple((ref.alias, c) for c in columns))
        return ValuesScanPlan(ref.rows, ref.alias, schema)
    if isinstance(ref, A.Join):
        engine.cov("plan.join")
        left = _plan_source(ref.left, engine, cte_env)
        right = _plan_source(ref.right, engine, cte_env)
        schema = Schema.concat(left.schema, right.schema)
        on_features = (
            dict(engine.node_features(ref.on)) if ref.on is not None else {}
        )
        on_features["join_kind"] = ref.kind
        return JoinPlan(ref.kind, left, right, ref.on, schema, on_features)
    raise SqlError(f"unsupported FROM item {type(ref).__name__}")


def _plan_named(
    ref: A.NamedTable, engine: "Engine", cte_env: dict[str, tuple[str, ...]]
) -> SourcePlan:
    binding = ref.binding
    key = ref.name.lower()

    if key in cte_env:
        engine.cov("plan.cte")
        if ref.indexed_by:
            raise SqlError("INDEXED BY cannot be applied to a CTE")
        columns = cte_env[key]
        schema = Schema(tuple((binding, c) for c in columns))
        return CteScan(ref.name, binding, schema)

    view = engine.database.get_view(ref.name)
    if view is not None:
        engine.cov("plan.view")
        if ref.indexed_by:
            raise SqlError("INDEXED BY cannot be applied to a view")
        sub = plan_select(view.query, engine, {})
        columns = view.columns or tuple(sub.out_columns)
        if view.columns and len(view.columns) != len(sub.out_columns):
            raise SqlError(f"view {view.name} column list mismatch")
        schema = Schema(tuple((binding, c) for c in columns))
        return SubplanScan(sub, binding, schema, origin="view")

    table = engine.database.get_table(ref.name)
    schema = Schema(tuple((binding, c.name) for c in table.columns))
    plan = ScanPlan(table.name, binding, schema)
    if ref.indexed_by:
        index = engine.database.get_index(ref.indexed_by)
        if index.table.lower() != table.name.lower():
            raise CatalogError(
                f"index {ref.indexed_by} does not belong to table {table.name}"
            )
        engine.cov("plan.scan.indexed_by")
        plan.access_path = "index_scan"
        plan.index_name = index.name
    else:
        engine.cov("plan.scan.full")
    return plan


# ---------------------------------------------------------------------------
# Optimizer passes
# ---------------------------------------------------------------------------


def _try_fold_constant_predicate(where: A.Expr, engine: "Engine") -> bool | None:
    """Evaluate a constant WHERE at plan time.

    Returns True (always-true), False (always false-or-null), or None
    (leave unfolded, e.g. when evaluation raises an expected error which
    must then surface at run time).
    """
    from repro.minidb.evaluator import EvalCtx, evaluate
    from repro.minidb.values import truth

    try:
        value = evaluate(where, EvalCtx(engine=engine, clause="const_fold"))
        verdict = truth(value, engine.mode)
    except SqlError:
        return None
    if verdict is True:
        return True
    return False


def _choose_access_paths(source: SourcePlan, where: A.Expr, engine: "Engine") -> None:
    """Switch scans to index paths when the predicate mentions an index's
    leading expression (or column)."""
    refs = A.column_refs(where)
    where_nodes = list(A.walk(where))
    for scan in _iter_scans(source):
        if scan.access_path == "index_scan":
            continue  # INDEXED BY already decided
        for index in sorted(
            engine.database.indexes_on(scan.table_name), key=lambda ix: ix.name
        ):
            lead = index.exprs[0]
            if isinstance(lead, A.ColumnRef):
                hit = any(
                    r.column.lower() == lead.column.lower()
                    and (r.table is None or r.table.lower() == scan.binding.lower())
                    for r in refs
                )
            else:
                hit = any(node == lead for node in where_nodes)
            if hit:
                engine.cov("plan.scan.index")
                scan.access_path = "index_scan"
                scan.index_name = index.name
                break


def _iter_scans(source: SourcePlan):
    if isinstance(source, ScanPlan):
        yield source
    elif isinstance(source, JoinPlan):
        yield from _iter_scans(source.left)
        yield from _iter_scans(source.right)


def _annotate_source_features(source: SourcePlan | None, features: dict) -> None:
    """Record source-shape facts into the WHERE feature dict (fault
    triggers key on access path and join structure)."""
    access = "none"
    join_kinds: list[str] = []
    has_view = False
    if source is not None:
        scans = list(_iter_scans(source))
        if any(s.access_path == "index_scan" for s in scans):
            access = "index_scan"
        elif scans:
            access = "full_scan"
        join_kinds = sorted(_collect_join_kinds(source))
        has_view = _has_view(source)
    features["access_path"] = access
    features["join_kinds"] = tuple(join_kinds)
    features["has_view"] = has_view


def _collect_join_kinds(source: SourcePlan) -> set[str]:
    if isinstance(source, JoinPlan):
        return (
            {source.kind}
            | _collect_join_kinds(source.left)
            | _collect_join_kinds(source.right)
        )
    return set()


def _has_view(source: SourcePlan) -> bool:
    if isinstance(source, SubplanScan) and source.origin == "view":
        return True
    if isinstance(source, JoinPlan):
        return _has_view(source.left) or _has_view(source.right)
    return False


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _plan_items(
    items: tuple[A.SelectItem, ...],
    source: SourcePlan | None,
    engine: "Engine",
) -> list[PlannedItem]:
    planned: list[PlannedItem] = []
    for item in items:
        if item.expr is None:
            engine.cov("plan.star")
            if source is None:
                raise SqlError("* requires a FROM clause")
            for binding, name in source.schema.entries:
                if item.table_star is not None and (
                    binding is None
                    or binding.lower() != item.table_star.lower()
                ):
                    continue
                planned.append(
                    PlannedItem(
                        A.ColumnRef(binding, name),
                        name,
                        {"star": True},
                    )
                )
            if item.table_star is not None and not any(
                p.features.get("star") for p in planned
            ):
                raise CatalogError(f"no such table: {item.table_star}")
            continue
        name = item.alias or _derive_name(item.expr)
        planned.append(
            PlannedItem(item.expr, name, dict(engine.node_features(item.expr)))
        )
    if not planned:
        raise SqlError("empty projection")
    return planned


def _derive_name(expr: A.Expr) -> str:
    if isinstance(expr, A.ColumnRef):
        return expr.column
    return expr.to_sql()


def _items_have_aggregates(select: A.Select) -> bool:
    exprs: list[A.Expr] = [i.expr for i in select.items if i.expr is not None]
    if select.having is not None:
        exprs.append(select.having)
    for o in select.order_by:
        exprs.append(o.expr)
    for expr in exprs:
        for node in A.walk(expr):
            if isinstance(node, A.FuncCall) and node.name.upper() in AGGREGATE_NAMES:
                if node.star or len(node.args) == 1:
                    return True
    return False


def validate_limit(value: object) -> int | None:
    """Interpret an evaluated LIMIT/OFFSET value (negative = unbounded,
    SQLite-style)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError_("LIMIT/OFFSET must evaluate to an integer")
