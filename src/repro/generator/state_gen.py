"""Random database-state generation.

Step 1 of the approach (paper Figure 1): "initialize the database and
create non-empty tables ... randomly by using rule-based generators".
Non-empty tables guarantee at least one row is available for constant
folding; indexes and views are created because several of the paper's
bugs require them (Listings 1 and 8).

All state is created through the adapter's SQL interface, so the same
generator drives both MiniDB profiles and the real SQLite.
"""

from __future__ import annotations

import random

from repro.adapters.base import EngineAdapter, SchemaInfo
from repro.errors import SqlError
from repro.minidb import ast_nodes as A
from repro.minidb.values import SqlValue

#: A large INT8 constant family (outside INT4 range) -- needed to reach
#: value-list bugs like paper Listing 9.
LARGE_INTS = [8628276060272066657, 2**33, -(2**35), 2**31 + 1]

TEXT_POOL = ["a", "b", "abc", "x", "", "1", "0.5x"]


class StateGenerator:
    """Generates a random schema plus contents via SQL statements."""

    def __init__(
        self,
        rng: random.Random,
        max_tables: int = 3,
        max_columns: int = 4,
        max_rows: int = 6,
        create_indexes: bool = True,
        create_views: bool = True,
        strict_typing: bool = False,
        portable: bool = False,
    ) -> None:
        self.rng = rng
        self.max_tables = max_tables
        self.max_columns = max_columns
        self.max_rows = max_rows
        self.create_indexes = create_indexes
        self.create_views = create_views
        self.strict_typing = strict_typing
        #: Portable mode (differential testing): view definitions avoid
        #: constructs whose semantics differ across engines -- here, the
        #: ``GROUP BY 1 > col`` aggregate view over non-numeric columns
        #: (engines disagree on mixed text/number comparison and on
        #: AVG over text).
        self.portable = portable
        #: Statements that built the current state (successful ones
        #: only).  Prepending them to a bug report's queries yields a
        #: self-contained, replayable program -- what the fleet corpus
        #: persists and the reducer minimizes.
        self.last_statements: list[str] = []

    # -- public -------------------------------------------------------------

    def generate(self, adapter: EngineAdapter) -> SchemaInfo:
        """Reset the adapter and build a fresh random state."""
        adapter.reset()
        self.last_statements = []
        n_tables = self.rng.randint(1, self.max_tables)
        for t in range(n_tables):
            self._create_table(adapter, f"t{t}")
        if self.create_views and self.rng.random() < 0.6:
            self._create_view(adapter, "v0", n_tables)
        return adapter.schema()

    def _exec(self, adapter: EngineAdapter, sql: str) -> None:
        """Execute one setup statement, recording it on success."""
        adapter.execute(sql)
        self.last_statements.append(sql)

    def _insert(
        self, adapter: EngineAdapter, table: str, rows: "list[list[SqlValue]]"
    ) -> None:
        """Insert *rows* with one ``INSERT ... VALUES``, built as an AST
        and offered to the adapter's parse memo (DDL stays text)."""
        values = tuple(tuple(A.Literal(v) for v in row) for row in rows)
        stmt = A.Insert(table, (), A.ValuesSource(values))
        sql = stmt.to_sql()
        adapter.prime_parse(sql, stmt)
        self._exec(adapter, sql)

    # -- pieces -------------------------------------------------------------

    def _create_table(self, adapter: EngineAdapter, name: str) -> None:
        n_cols = self.rng.randint(1, self.max_columns)
        col_defs: list[str] = []
        col_types: list[str] = []
        not_nulls: list[bool] = []
        for c in range(n_cols):
            sql_type = self.rng.choice(
                ["INT", "INT", "INT", "BIGINT", "BIGINT", "TEXT", "BOOL", "REAL"]
            )
            if not self.strict_typing and self.rng.random() < 0.15:
                # SQLite-style dynamically typed column.
                col_defs.append(f"c{c}")
                col_types.append("ANY")
                not_nulls.append(False)
                continue
            not_null = self.rng.random() < 0.15
            col_defs.append(f"c{c} {sql_type}{' NOT NULL' if not_null else ''}")
            col_types.append(sql_type)
            not_nulls.append(not_null)
        self._exec(adapter, f"CREATE TABLE {name} ({', '.join(col_defs)})")

        n_rows = self.rng.randint(1, self.max_rows)
        rows: list[list[SqlValue]] = [
            [self._random_value(col_types[c]) for c in range(n_cols)]
            for _ in range(n_rows)
        ]
        try:
            self._insert(adapter, name, rows)
        except SqlError:
            # NOT NULL violation: statements are atomic, so nothing was
            # inserted.  Patch the offending NULLs and retry with the
            # full row set (single-row tables trigger far fewer join
            # bugs), falling back to one all-safe row.
            patched = [
                [
                    self._safe_value(col_types[c])
                    if v is None and not_nulls[c]
                    else v
                    for c, v in enumerate(row)
                ]
                for row in rows
            ]
            try:
                self._insert(adapter, name, patched)
            except SqlError:
                safe = [[self._safe_value(t) for t in col_types]]
                self._insert(adapter, name, safe)

        if self.create_indexes and self.rng.random() < 0.7:
            self._create_index(adapter, name, n_cols)

    def _random_value(self, sql_type: str) -> SqlValue:
        r = self.rng.random()
        if r < 0.12:
            return None
        if sql_type in ("INT", "BIGINT", "ANY"):
            if sql_type == "BIGINT" and self.rng.random() < 0.5:
                return self.rng.choice(LARGE_INTS)
            return self.rng.randint(-5, 10)
        if sql_type == "TEXT":
            return self.rng.choice(TEXT_POOL)
        if sql_type == "BOOL":
            return self.rng.random() < 0.5
        if sql_type == "REAL":
            # Whole-valued reals avoid the floating-point false alarms the
            # paper eschews (Section 4.1).
            return float(self.rng.randint(-5, 10))
        return self.rng.randint(-5, 10)

    def _safe_value(self, sql_type: str) -> SqlValue:
        return {
            "INT": 1,
            "BIGINT": 1,
            "ANY": 1,
            "TEXT": "a",
            "BOOL": True,
            "REAL": 1.0,
        }.get(sql_type, 1)

    def _create_index(self, adapter: EngineAdapter, table: str, n_cols: int) -> None:
        col = f"c{self.rng.randrange(n_cols)}"
        ix_name = f"ix_{table}_{self.rng.randrange(1000)}"
        choice = self.rng.random()
        try:
            if choice < 0.5:
                self._exec(adapter, f"CREATE INDEX {ix_name} ON {table} ({col})")
            elif choice < 0.8:
                self._exec(adapter, f"CREATE INDEX {ix_name} ON {table} ({col} > 0)")
            else:
                self._exec(
                    adapter, f"CREATE INDEX {ix_name} ON {table} ({col}) WHERE {col} IS NOT NULL"
                )
        except SqlError:
            pass  # e.g. expression indexes unsupported by a dialect

    def _create_view(self, adapter: EngineAdapter, name: str, n_tables: int) -> None:
        from repro.minidb.values import SqlType

        table = f"t{self.rng.randrange(n_tables)}"
        try:
            info = adapter.schema().table(table)
        except KeyError:
            return
        col = self.rng.choice(info.columns).name
        choice = self.rng.random()
        if self.portable and choice < 0.7:
            # The aggregate-view shape needs a numeric column: cross-
            # engine, ``1 > text_col`` groups differently and AVG(text)
            # is engine-defined.
            numeric = [
                c.name
                for c in info.columns
                if c.sql_type in (SqlType.INTEGER, SqlType.REAL)
            ]
            if not numeric:
                choice = 0.0  # fall back to the plain projection view
            elif 0.4 <= choice:
                col = self.rng.choice(numeric)
        try:
            if choice < 0.4:
                self._exec(
                    adapter, f"CREATE VIEW {name} (c0) AS SELECT {col} FROM {table}"
                )
            elif choice < 0.7:
                self._exec(
                    adapter, f"CREATE VIEW {name} (c0) AS "
                    f"SELECT AVG({col}) FROM {table} GROUP BY 1 > {col}"
                )
            else:
                self._exec(
                    adapter, f"CREATE VIEW {name} (c0, c1) AS "
                    f"SELECT {col}, COUNT(*) FROM {table} GROUP BY {col}"
                )
        except SqlError:
            pass
