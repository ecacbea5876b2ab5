"""DQE: Differential Query Execution (Song et al., ICSE 2023; paper
baseline [35]).

The same predicate must select the same rows in SELECT, UPDATE, and
DELETE.  Following the original tool, DQE works on a *single table*
with two bookkeeping columns: a unique row id and a modification marker
(paper Section 4.3 explains why this makes DQE's queries-per-test high,
around 17).  Joins and subqueries are out of scope (paper Section 4.3:
DQE "cannot test certain language features, such as JOIN").
"""

from __future__ import annotations

from repro.errors import SqlError
from repro.generator.expr_gen import ExprGenerator, ScopeColumn
from repro.minidb import ast_nodes as A
from repro.oracles_base import Oracle, OracleSkip, TestReport

WORK_TABLE = "dqe_w"


def _ids_where(where: "A.Expr | None") -> A.Select:
    """``SELECT dqe_id FROM dqe_w [WHERE where]``."""
    item = A.SelectItem(A.ColumnRef(None, "dqe_id"))
    return A.Select((item,), A.NamedTable(WORK_TABLE), where=where)


#: The rows UPDATE marked.  ``to_sql()`` would parenthesize the
#: comparison, so the query keeps its text and hands its AST along.
_MARKED_SQL = f"SELECT dqe_id FROM {WORK_TABLE} WHERE dqe_mark = 1"
_MARKED = _ids_where(A.Binary("=", A.ColumnRef(None, "dqe_mark"), A.Literal(1)))


class DQEOracle(Oracle):
    name = "dqe"

    def __init__(self, max_depth: int = 3) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.expr_gen: ExprGenerator | None = None

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

    def check_once(self) -> TestReport | None:
        assert self.expr_gen is not None and self.schema is not None
        base_tables = self.schema.base_tables
        if not base_tables:
            raise OracleSkip()
        table = self.rng.choice(base_tables)
        try:
            return self._differential(table)
        finally:
            self._drop_work_table()

    def _differential(self, table) -> TestReport | None:
        assert self.expr_gen is not None

        # Build the work table: original columns + id + marker.  DDL is
        # written as text; the other statements are built as ASTs and
        # handed along, so MiniDB's parse memo need not parse them.
        source = A.Select((A.SelectItem(None),), A.NamedTable(table.name))
        rows = self.execute(source.to_sql(), ast=source).rows
        if not rows:
            raise OracleSkip()
        col_defs = ", ".join(c.name for c in table.columns)
        self.execute(
            f"CREATE TABLE {WORK_TABLE} ({col_defs}, dqe_id INT, dqe_mark INT)"
        )
        # Index a random data column so the predicate exercises the same
        # access paths the original table had.
        indexed = self.rng.choice(table.columns).name
        self.execute(f"CREATE INDEX dqe_ix ON {WORK_TABLE} ({indexed})")
        for i, row in enumerate(rows):
            values = (*map(A.Literal, row), A.Literal(i), A.Literal(0))
            insert = A.Insert(WORK_TABLE, (), A.ValuesSource((values,)))
            self.execute(insert.to_sql(), ast=insert)
        all_ids = set(range(len(rows)))

        scope = [
            ScopeColumn(WORK_TABLE, c.name, c.sql_type) for c in table.columns
        ]
        predicate = self.expr_gen.predicate(scope).expr

        selected = _ids_where(predicate)
        select_ids = {
            r[0]
            for r in self.execute(
                selected.to_sql(), is_main_query=True, ast=selected
            ).rows
        }

        update = A.Update(WORK_TABLE, (("dqe_mark", A.Literal(1)),), predicate)
        self.execute(update.to_sql(), ast=update)
        update_ids = {r[0] for r in self.execute(_MARKED_SQL, ast=_MARKED).rows}

        delete = A.Delete(WORK_TABLE, predicate)
        self.execute(delete.to_sql(), ast=delete)
        remaining = _ids_where(None)
        delete_ids = all_ids - {
            r[0] for r in self.execute(remaining.to_sql(), ast=remaining).rows
        }

        if select_ids == update_ids == delete_ids:
            return None
        return self.report(
            f"predicate selected {sorted(select_ids)} rows in SELECT, "
            f"{sorted(update_ids)} in UPDATE, {sorted(delete_ids)} in DELETE"
        )

    def _drop_work_table(self) -> None:
        assert self.adapter is not None
        try:
            self.adapter.execute(f"DROP TABLE IF EXISTS {WORK_TABLE}")
        except SqlError:  # pragma: no cover - defensive
            pass
