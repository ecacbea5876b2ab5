"""The MiniDB engine facade.

:class:`Engine` is the "DBMS under test": it parses SQL text, plans and
executes statements against an in-memory catalog, and exposes the knobs
the reproduction needs -- a dialect :class:`EngineProfile`, a
:class:`~repro.minidb.faults.FaultInjector`, and a
:class:`~repro.minidb.coverage.CoverageTracker`.

The oracles treat the engine as a black box through
:meth:`Engine.execute`, exactly as the paper's oracles treat real DBMSs
through their SQL interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlError, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb.catalog import Column, Database, Index, Table, View, resolve_type_name
from repro.minidb.coverage import CoverageTracker, register_tags
from repro.minidb.evaluator import EvalCtx, evaluate
from repro.minidb.executor import Materialized, execute_select
from repro.minidb.faults import Fault, FaultInjector, expr_features
from repro.minidb.parser import parse_statement
from repro.minidb.planner import plan_select
from repro.minidb.values import (
    SqlType,
    SqlValue,
    TypingMode,
    cast,
    truth,
)

register_tags(
    "stmt.select",
    "stmt.insert.values",
    "stmt.insert.select",
    "stmt.update",
    "stmt.delete",
    "stmt.create_table",
    "stmt.create_index",
    "stmt.create_view",
    "stmt.drop",
)


@dataclass(frozen=True)
class EngineProfile:
    """Dialect knobs distinguishing the five simulated DBMSs.

    Mirrors the implementation details of paper Section 3.3: strict vs
    relaxed typing, ANY/ALL support, and scalar-subquery cardinality
    behaviour (paper Listing 5).
    """

    name: str = "minidb"
    typing_mode: TypingMode = TypingMode.RELAXED
    supports_any_all: bool = True
    #: "error" (MySQL-like) or "first" (SQLite-like LIMIT-1 behaviour).
    scalar_subquery_multi_row: str = "error"
    #: Reported by pg_typeof()/typeof()-style introspection helpers.
    display_name: str = "MiniDB"


@dataclass
class QueryResult:
    """Result of one statement execution."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[SqlValue, ...]] = field(default_factory=list)
    plan_fingerprint: str | None = None
    rows_affected: int = 0


class Engine:
    """An in-process SQL engine instance."""

    def __init__(
        self,
        profile: EngineProfile | None = None,
        faults: list[Fault] | None = None,
    ) -> None:
        self.profile = profile or EngineProfile()
        self.mode = self.profile.typing_mode
        self.database = Database()
        self.coverage = CoverageTracker()
        self.faults = FaultInjector(faults)
        self._feature_cache: dict[int, dict] = {}
        self._subplan_cache: dict[int, object] = {}
        self._subquery_result_cache: dict[int, Materialized] = {}
        self._correlated_cache: dict[int, bool] = {}
        self._extra_fingerprints: set[str] = set()

    # -- hooks used by evaluator/executor/planner ---------------------------

    def cov(self, tag: str) -> None:
        self.coverage.hit(tag)

    def node_features(self, expr: A.Expr) -> dict:
        cached = self._feature_cache.get(id(expr))
        if cached is None:
            cached = expr_features(expr, self.database)
            self._feature_cache[id(expr)] = cached
        return cached

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one SQL statement.

        Raises :class:`~repro.errors.SqlError` subclasses for expected
        errors and Internal/Crash/Hang errors for injected bugs.
        """
        stmt = parse_statement(sql)
        return self.execute_ast(stmt)

    def execute_ast(self, stmt: A.Statement) -> QueryResult:
        """Execute an already-parsed statement."""
        self.faults.reset_fired()
        self._feature_cache.clear()
        self._subplan_cache.clear()
        self._subquery_result_cache.clear()
        self._correlated_cache.clear()
        self._extra_fingerprints.clear()

        if isinstance(stmt, A.Select):
            return self._execute_select_stmt(stmt)
        if isinstance(stmt, A.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, A.Update):
            return self._execute_update(stmt)
        if isinstance(stmt, A.Delete):
            return self._execute_delete(stmt)
        if isinstance(stmt, A.CreateTable):
            return self._execute_create_table(stmt)
        if isinstance(stmt, A.CreateIndex):
            return self._execute_create_index(stmt)
        if isinstance(stmt, A.CreateView):
            return self._execute_create_view(stmt)
        if isinstance(stmt, A.Drop):
            self.cov("stmt.drop")
            self.database.drop(stmt.kind, stmt.name, stmt.if_exists)
            return QueryResult()
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

    # -- SELECT ----------------------------------------------------------------

    def _execute_select_stmt(self, stmt: A.Select) -> QueryResult:
        self.cov("stmt.select")
        plan = plan_select(stmt, self)
        ctx = EvalCtx(
            engine=self,
            statement="SELECT",
            flags={"stmt_has_cte": bool(stmt.ctes)},
        )
        mat = execute_select(plan, ctx)
        fingerprint = plan.fingerprint()
        if self._extra_fingerprints:
            fingerprint += "|" + ",".join(sorted(self._extra_fingerprints))
        return QueryResult(mat.columns, mat.rows, fingerprint)

    def execute_subquery(self, query: A.Select, ctx: EvalCtx) -> Materialized:
        """Execute a nested SELECT in the scope of *ctx* (evaluator hook).

        Uncorrelated subqueries are planned and executed once per
        statement -- the "uncorrelated subquery caching" optimization in
        which bugs like the TiDB mis-correlation of paper Section 4.2 can
        live.
        """
        key = id(query)
        correlated = self.select_is_correlated(query)
        if not correlated:
            cached = self._subquery_result_cache.get(key)
            if cached is not None:
                self.cov("eval.subquery.cached")
                return cached
        plan = self._subplan_cache.get(key)
        if plan is None:
            cte_env = {
                name: tuple(mat.columns) for name, mat in ctx.relations.items()
            }
            plan = plan_select(query, self, cte_env)
            self._subplan_cache[key] = plan
            self._extra_fingerprints.add(plan.fingerprint())
        sub_ctx = EvalCtx(
            ctx.engine,
            ctx.frame,
            ctx.clause,
            ctx.statement,
            ctx.relations,
            True,
            ctx.depth + 1,
            ctx.flags,
        )
        if ctx.depth > 40:
            raise ValueError_("subquery nesting too deep")
        mat = execute_select(plan, sub_ctx)  # type: ignore[arg-type]
        result = Materialized(mat.columns, mat.rows)
        if not correlated:
            self._subquery_result_cache[key] = result
        return result

    def select_is_correlated(self, query: A.Select) -> bool:
        """Whether *query* references columns from an outer scope."""
        key = id(query)
        cached = self._correlated_cache.get(key)
        if cached is None:
            cached = _select_escapes(query, [], self.database)
            self._correlated_cache[key] = cached
        return cached

    # -- DML --------------------------------------------------------------------

    def _execute_insert(self, stmt: A.Insert) -> QueryResult:
        table = self.database.get_table(stmt.table)
        if stmt.columns:
            target_idx = [table.column_index(c) for c in stmt.columns]
        else:
            target_idx = list(range(len(table.columns)))

        if isinstance(stmt.source, A.ValuesSource):
            self.cov("stmt.insert.values")
            ctx = EvalCtx(engine=self, statement="INSERT", clause="values")
            source_rows = [
                tuple(evaluate(e, ctx) for e in row) for row in stmt.source.rows
            ]
            source_rows = self.faults.fire(
                "values_rows",
                {"statement": "INSERT", "clause": "values"},
                source_rows,
            )
        else:
            self.cov("stmt.insert.select")
            plan = plan_select(stmt.source, self)
            ctx = EvalCtx(engine=self, statement="INSERT_SELECT")
            mat = execute_select(plan, ctx)
            features = dict(plan.where_features)
            features["statement"] = "INSERT_SELECT"
            features["clause"] = "insert_source"
            source_rows = self.faults.fire("insert_select_rows", features, mat.rows)

        # Statement-level atomicity (SQLite semantics): coerce and
        # validate every row before storing any, so a constraint
        # violation on row N leaves rows 1..N-1 uninserted too.  The
        # differential layer relies on this: a rejected INSERT must have
        # no side effects on either backend.
        coerced: list[tuple[SqlValue, ...]] = []
        for row in source_rows:
            if len(row) != len(target_idx):
                raise ValueError_(
                    f"{len(target_idx)} columns expected but "
                    f"{len(row)} values were supplied"
                )
            full: list[SqlValue] = [None] * len(table.columns)
            for idx, value in zip(target_idx, row):
                full[idx] = _coerce_for_column(
                    value, table.columns[idx].declared_type, self.mode
                )
            for col, value in zip(table.columns, full):
                if col.not_null and value is None:
                    raise ValueError_(f"NOT NULL constraint failed: {col.name}")
            coerced.append(tuple(full))
        for full_row in coerced:
            table.insert_row(full_row)
        return QueryResult(rows_affected=len(coerced))

    def _execute_update(self, stmt: A.Update) -> QueryResult:
        self.cov("stmt.update")
        table = self.database.get_table(stmt.table)
        plan_schema = _table_schema(table)
        features = expr_features(stmt.where) if stmt.where is not None else {}
        features.update(
            {"statement": "UPDATE", "clause": "where", "access_path": "full_scan"}
        )
        ctx = EvalCtx(engine=self, statement="UPDATE")
        assign_idx = [(table.column_index(c), e) for c, e in stmt.assignments]

        from repro.minidb.evaluator import Frame

        # One frame/ctx pair per clause, reused across rows: nothing
        # retains the frame past each evaluate() call, so mutating
        # ``frame.row`` is safe and avoids per-row dataclass allocation.
        frame = Frame(plan_schema, ())
        where_ctx = ctx.with_frame(frame).with_clause("where")
        set_ctx = ctx.with_frame(frame).with_clause("set")
        # Decided once: the feature dict is the same for every row.
        where_faults = self.faults.matching("update_where_result", features)
        new_rows: list[tuple[SqlValue, ...]] = []
        affected = 0
        for row in table.rows:
            frame.row = row
            if stmt.where is not None:
                verdict = truth(evaluate(stmt.where, where_ctx), self.mode)
                if where_faults:
                    verdict = self.faults.apply(where_faults, verdict)
            else:
                verdict = True
            if verdict is not True:
                new_rows.append(row)
                continue
            affected += 1
            updated = list(row)
            for idx, expr in assign_idx:
                value = evaluate(expr, set_ctx)
                column = table.columns[idx]
                value = _coerce_for_column(value, column.declared_type, self.mode)
                if column.not_null and value is None:
                    raise ValueError_(f"NOT NULL constraint failed: {column.name}")
                updated[idx] = value
            new_rows.append(tuple(updated))
        table.rows = new_rows
        return QueryResult(rows_affected=affected)

    def _execute_delete(self, stmt: A.Delete) -> QueryResult:
        self.cov("stmt.delete")
        table = self.database.get_table(stmt.table)
        plan_schema = _table_schema(table)
        features = expr_features(stmt.where) if stmt.where is not None else {}
        features.update(
            {"statement": "DELETE", "clause": "where", "access_path": "full_scan"}
        )
        ctx = EvalCtx(engine=self, statement="DELETE")

        from repro.minidb.evaluator import Frame

        frame = Frame(plan_schema, ())
        where_ctx = ctx.with_frame(frame).with_clause("where")
        where_faults = self.faults.matching("delete_where_result", features)
        kept: list[tuple[SqlValue, ...]] = []
        deleted = 0
        for row in table.rows:
            if stmt.where is None:
                deleted += 1
                continue
            frame.row = row
            verdict = truth(evaluate(stmt.where, where_ctx), self.mode)
            if where_faults:
                verdict = self.faults.apply(where_faults, verdict)
            if verdict is True:
                deleted += 1
            else:
                kept.append(row)
        table.rows = kept
        return QueryResult(rows_affected=deleted)

    # -- DDL ---------------------------------------------------------------------

    def _execute_create_table(self, stmt: A.CreateTable) -> QueryResult:
        self.cov("stmt.create_table")
        seen: set[str] = set()
        columns: list[Column] = []
        for cdef in stmt.columns:
            key = cdef.name.lower()
            if key in seen:
                raise SqlError(f"duplicate column name: {cdef.name}")
            seen.add(key)
            columns.append(
                Column(
                    cdef.name,
                    resolve_type_name(cdef.type_name),
                    cdef.not_null or cdef.primary_key,
                )
            )
        self.database.create_table(
            Table(stmt.name, columns), if_not_exists=stmt.if_not_exists
        )
        return QueryResult()

    def _execute_create_index(self, stmt: A.CreateIndex) -> QueryResult:
        self.cov("stmt.create_index")
        table = self.database.get_table(stmt.table)
        valid = {c.name.lower() for c in table.columns}
        for expr in stmt.exprs:
            for ref in A.column_refs(expr):
                if ref.column.lower() not in valid:
                    raise SqlError(
                        f"index expression references unknown column {ref.column}"
                    )
        self.database.create_index(
            Index(stmt.name, stmt.table, stmt.exprs, stmt.where, stmt.unique)
        )
        return QueryResult()

    def _execute_create_view(self, stmt: A.CreateView) -> QueryResult:
        self.cov("stmt.create_view")
        plan = plan_select(stmt.query, self)  # validates the query
        if stmt.columns and len(stmt.columns) != len(plan.items):
            raise SqlError("view column list does not match SELECT width")
        self.database.create_view(View(stmt.name, stmt.columns, stmt.query))
        return QueryResult()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _table_schema(table: Table):
    from repro.minidb.plan import Schema

    return Schema(tuple((table.name, c.name) for c in table.columns))


def _coerce_for_column(
    value: SqlValue, declared: SqlType | None, mode: TypingMode
) -> SqlValue:
    """Apply column type affinity on INSERT/UPDATE (SQLite-flavoured in
    relaxed mode; strict mode raises on lossy mixes)."""
    if value is None or declared is None:
        return value
    if declared is SqlType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else value
        return cast(value, SqlType.INTEGER, mode) if mode is TypingMode.STRICT else value
    if declared is SqlType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        return cast(value, SqlType.REAL, mode) if mode is TypingMode.STRICT else value
    if declared is SqlType.TEXT:
        if isinstance(value, str):
            return value
        return cast(value, SqlType.TEXT, mode)
    if declared is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if mode is TypingMode.STRICT:
            raise ValueError_("BOOLEAN column requires a boolean value")
        return truth(value, mode)
    return value


def _select_escapes(
    query: A.Select,
    outer_scopes: list[tuple[set[str], set[str], bool]],
    database: Database,
) -> bool:
    """True if *query* references names not resolvable within itself or
    the given enclosing scopes -- i.e. the select is correlated (relative
    to whatever surrounds the outermost scope in *outer_scopes*)."""
    bindings, columns, any_columns = _own_scope(query, database)
    scopes = [(bindings, columns, any_columns)] + outer_scopes

    def resolvable(ref: A.ColumnRef) -> bool:
        for b, cols, any_cols in scopes:
            if ref.table is not None:
                if ref.table.lower() in b:
                    return True
            else:
                if any_cols or ref.column.lower() in cols:
                    return True
        return False

    def check_expr(expr: A.Expr) -> bool:
        """True if some reference escapes all scopes."""
        for node in A.walk(expr):
            if isinstance(node, A.ColumnRef) and not resolvable(node):
                return True
        for node in A.walk(expr):
            if isinstance(node, (A.Exists, A.ScalarSubquery, A.InSubquery, A.Quantified)):
                if _select_escapes(node.query, scopes, database):
                    return True
        return False

    for item in query.items:
        if item.expr is not None and check_expr(item.expr):
            return True
    if query.where is not None and check_expr(query.where):
        return True
    for e in query.group_by:
        if check_expr(e):
            return True
    if query.having is not None and check_expr(query.having):
        return True
    for o in query.order_by:
        if check_expr(o.expr):
            return True
    if query.set_op is not None and _select_escapes(query.set_op[2], outer_scopes, database):
        return True
    on_exprs: list[A.Expr] = []
    _collect_on_exprs(query.from_clause, on_exprs)
    for e in on_exprs:
        if check_expr(e):
            return True
    return False


def _collect_on_exprs(ref: A.TableRef | None, out: list[A.Expr]) -> None:
    if isinstance(ref, A.Join):
        if ref.on is not None:
            out.append(ref.on)
        _collect_on_exprs(ref.left, out)
        _collect_on_exprs(ref.right, out)


def _own_scope(
    query: A.Select, database: Database
) -> tuple[set[str], set[str], bool]:
    """Binding names, column names, and an "unknown columns" flag for the
    FROM clause (plus CTEs) of *query*."""
    bindings: set[str] = set()
    columns: set[str] = set()
    any_columns = False

    def visit(ref: A.TableRef | None) -> None:
        nonlocal any_columns
        if ref is None:
            return
        if isinstance(ref, A.NamedTable):
            bindings.add(ref.binding.lower())
            key = ref.name.lower()
            if key in database.tables:
                columns.update(c.name.lower() for c in database.tables[key].columns)
            elif key in database.views:
                view = database.views[key]
                if view.columns:
                    columns.update(c.lower() for c in view.columns)
                else:
                    for item in view.query.items:
                        _item_columns(item)
            else:
                any_columns = True  # unknown relation (e.g. CTE): be permissive
        elif isinstance(ref, A.DerivedTable):
            bindings.add(ref.alias.lower())
            if ref.column_aliases:
                columns.update(c.lower() for c in ref.column_aliases)
            else:
                for item in ref.query.items:
                    _item_columns(item)
        elif isinstance(ref, A.ValuesTable):
            bindings.add(ref.alias.lower())
            columns.update(c.lower() for c in ref.column_aliases)
        elif isinstance(ref, A.Join):
            visit(ref.left)
            visit(ref.right)

    def _item_columns(item: A.SelectItem) -> None:
        nonlocal any_columns
        if item.expr is None:
            any_columns = True
        elif item.alias:
            columns.add(item.alias.lower())
        elif isinstance(item.expr, A.ColumnRef):
            columns.add(item.expr.column.lower())

    visit(query.from_clause)
    for cte in query.ctes:
        bindings.add(cte.name.lower())
        columns.update(c.lower() for c in cte.columns)
    return bindings, columns, any_columns
