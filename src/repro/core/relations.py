"""Relation-level constant folding (paper Section 3.4).

Beyond predicates, CODDTest folds *relations*: a non-correlated subquery
computing a non-empty result serves as the source of an original
relation, and the folded relation sources the same rows from a table
value constructor (``VALUES``).  Three constructions exist on each side,
chosen at random (paper Section 3.4):

* a real table populated by ``INSERT ... SELECT`` (original) or
  ``INSERT ... VALUES`` (folded) -- how the paper found the TiDB
  ``INSERT`` bug of Listing 6;
* a derived table in FROM;
* a common table expression.

A wrapper predicate applied identically to both relations makes the test
sensitive to downstream evaluation too (the CockroachDB CTE bug of
Listing 7 requires exactly this shape).

Every SELECT and INSERT here is built as an AST, like the paper's
folded queries (Section 4), and runs as its rendered SQL with the AST
handed along, so a cached MiniDB adapter need not parse it back.  Only
the scratch tables' ``CREATE`` and ``DROP`` are written as text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SqlError
from repro.generator.expr_gen import ScopeColumn
from repro.minidb import ast_nodes as A
from repro.minidb.values import SqlType, SqlValue
from repro.oracles_base import OracleSkip, TestReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.adapters.base import ExecResult
    from repro.core.coddtest import CoddTestOracle

#: Row cap for folded VALUES constructors.
MAX_RELATION_ROWS = 24

#: The name the original and folded relations go by in the queries over
#: them; the wrapper predicate is generated against it.
_RELATION = "codd_rel"

_TYPE_NAMES = {
    SqlType.INTEGER: "INT",
    SqlType.REAL: "REAL",
    SqlType.TEXT: "TEXT",
    SqlType.BOOLEAN: "BOOL",
}


class RelationFolder:
    """Implements the Section 3.4 extension on top of a bound oracle."""

    ORIGINAL_KINDS = ("insert_select", "derived", "cte")
    FOLDED_KINDS = ("insert_values", "derived_values", "cte_values")

    def __init__(self, oracle: "CoddTestOracle") -> None:
        self.oracle = oracle

    def check_once(self) -> TestReport | None:
        oracle = self.oracle
        rng = oracle.rng
        assert oracle.schema is not None and oracle.expr_gen is not None

        base_tables = oracle.schema.base_tables
        if not base_tables:
            raise OracleSkip()
        table = rng.choice(base_tables)

        # The source subquery Q (must be non-correlated and non-empty).
        source = self._source_query(table)
        rows = self._execute(source).rows
        if not rows or len(rows) > MAX_RELATION_ROWS:
            raise OracleSkip()

        columns = [f"rc{i}" for i in range(len(table.columns))]
        col_types = [c.sql_type for c in table.columns]
        scope = [
            ScopeColumn(_RELATION, name, t) for name, t in zip(columns, col_types)
        ]
        if rng.random() < 0.2 and len(scope) >= 1:
            # The Listing-7 shape: NOT BETWEEN with a CASE-valued bound
            # over a CTE/derived relation.
            col = rng.choice(scope)
            case_bound = A.Case(
                None,
                (A.CaseWhen(A.Literal(None), A.Literal(rng.randint(0, 5))),),
                col.ref,
            )
            predicate: A.Expr | None = A.Between(
                col.ref, col.ref, case_bound, negated=True
            )
        elif rng.random() < 0.7:
            predicate = oracle.expr_gen.predicate(scope).expr
        else:
            predicate = None

        o_kind = rng.choice(self.ORIGINAL_KINDS)
        f_kind = rng.choice(self.FOLDED_KINDS)
        try:
            o_rows = self._run_original(o_kind, source, columns, col_types, predicate)
            f_rows = self._run_folded(f_kind, rows, columns, col_types, predicate)
        finally:
            self._cleanup()

        if oracle.compare_rows(o_rows, f_rows):
            return None
        return oracle.report(
            f"relation folding mismatch ({o_kind} vs {f_kind}): "
            f"{len(o_rows)} vs {len(f_rows)} rows"
        )

    # -- source subquery ------------------------------------------------------

    def _source_query(self, table) -> A.Select:
        oracle = self.oracle
        rng = oracle.rng
        alias = "src0"
        items = tuple(
            A.SelectItem(A.ColumnRef(alias, c.name), alias=f"rc{i}")
            for i, c in enumerate(table.columns)
        )
        where: A.Expr | None = None
        r = rng.random()
        if r < 0.25:
            # The Listing-6 shape: a deterministic function in the
            # INSERT ... SELECT predicate (sometimes negated).
            col = rng.choice(table.columns)
            where = A.Binary(
                ">=", A.FuncCall("VERSION", ()), A.ColumnRef(alias, col.name)
            )
            if rng.random() < 0.4:
                where = A.Unary(
                    "NOT",
                    A.Binary(
                        "<", A.FuncCall("VERSION", ()), A.ColumnRef(alias, col.name)
                    ),
                )
        elif r < 0.6:
            col = rng.choice(table.columns)
            inner_scope = [
                ScopeColumn(alias, c.name, c.sql_type) for c in table.columns
            ]
            assert oracle.expr_gen is not None
            saved = oracle.expr_gen.allow_subqueries
            oracle.expr_gen.allow_subqueries = False
            try:
                where = oracle.expr_gen.predicate(inner_scope).expr
            finally:
                oracle.expr_gen.allow_subqueries = saved
        limit = A.Literal(rng.randint(1, 8)) if rng.random() < 0.3 else None
        return A.Select(
            items=items,
            from_clause=A.NamedTable(table.name, alias),
            where=where,
            limit=limit,
        )

    # -- original / folded construction -----------------------------------------

    def _run_original(
        self,
        kind: str,
        source: A.Select,
        columns: list[str],
        col_types: list[SqlType | None],
        predicate: A.Expr | None,
    ) -> list[tuple[SqlValue, ...]]:
        if kind == "insert_select":
            self._create_table("codd_o", columns, col_types)
            self._execute(A.Insert("codd_o", (), source))
            query = _select_over("codd_o", predicate)
        elif kind == "derived":
            query = _select_star(A.DerivedTable(source, _RELATION), predicate)
        else:
            query = _select_from_cte(source, columns, predicate)
        return self._execute(query, is_main_query=True).rows

    def _run_folded(
        self,
        kind: str,
        rows: list[tuple[SqlValue, ...]],
        columns: list[str],
        col_types: list[SqlType | None],
        predicate: A.Expr | None,
    ) -> list[tuple[SqlValue, ...]]:
        values = tuple(tuple(A.Literal(v) for v in row) for row in rows)
        if kind == "insert_values":
            self._create_table("codd_f", columns, col_types)
            self._execute(A.Insert("codd_f", (), A.ValuesSource(values)))
            query = _select_over("codd_f", predicate)
        elif kind == "derived_values":
            query = _select_star(
                A.ValuesTable(values, _RELATION, tuple(columns)), predicate
            )
        else:
            query = _select_from_cte(A.ValuesSource(values), columns, predicate)
        return self._execute(query).rows

    def _execute(
        self, stmt: A.Node, is_main_query: bool = False
    ) -> "ExecResult":
        """Run *stmt* as its rendered SQL, handing the AST along so a
        cached adapter need not parse the text back."""
        return self.oracle.execute(
            stmt.to_sql(), is_main_query=is_main_query, ast=stmt
        )

    def _create_table(
        self, name: str, columns: list[str], col_types: list[SqlType | None]
    ) -> None:
        defs = []
        for col, sql_type in zip(columns, col_types):
            type_name = _TYPE_NAMES.get(sql_type, "") if sql_type else ""
            defs.append(f"{col} {type_name}".strip())
        self.oracle.execute(f"CREATE TABLE {name} ({', '.join(defs)})")

    def _cleanup(self) -> None:
        """Drop scratch tables without disturbing test accounting
        (paper Section 4.3: the extra create/drop statements are why
        CODDTest's QPT exceeds three)."""
        assert self.oracle.adapter is not None
        for name in ("codd_o", "codd_f"):
            try:
                self.oracle.adapter.execute(f"DROP TABLE IF EXISTS {name}")
            except SqlError:  # pragma: no cover - defensive
                pass


def _select_star(
    relation: A.TableRef,
    predicate: A.Expr | None,
    ctes: tuple[A.Cte, ...] = (),
) -> A.Select:
    """``[WITH ...] SELECT * FROM relation [WHERE predicate]``."""
    return A.Select(
        items=(A.SelectItem(None),),
        from_clause=relation,
        where=predicate,
        ctes=ctes,
    )


def _select_from_cte(
    body: "A.Select | A.ValuesSource",
    columns: list[str],
    predicate: A.Expr | None,
) -> A.Select:
    """``WITH codd_rel(columns) AS (body) SELECT * FROM codd_rel ...``."""
    cte = A.Cte(_RELATION, tuple(columns), body)
    return _select_star(A.NamedTable(_RELATION), predicate, ctes=(cte,))


def _select_over(table_name: str, predicate: A.Expr | None) -> A.Select:
    """The wrapper query over a scratch table filled by INSERT."""
    return _select_star(
        A.NamedTable(table_name), _rebind(predicate, _RELATION, table_name)
    )


def _rebind(
    expr: A.Expr | None, old_binding: str, new_binding: str
) -> A.Expr | None:
    """Re-qualify column references from one relation alias to another."""
    if expr is None:
        return expr

    def fn(node: A.Expr) -> A.Expr | None:
        if isinstance(node, A.ColumnRef) and node.table == old_binding:
            return A.ColumnRef(new_binding, node.column)
        return None

    return A.transform(expr, fn)
