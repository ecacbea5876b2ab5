"""Catalog and row storage for MiniDB.

A :class:`Database` holds tables (rows stored as lists of value tuples),
views (stored as their defining query AST), and indexes (stored as their
expression list; MiniDB keeps no physical index structure -- the planner
uses index *metadata* to pick access paths, which is all the paper's
bug classes need, e.g. the ``INDEXED BY`` requirement of Listing 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb.values import SqlType, SqlValue


_TYPE_NAME_MAP = {
    "INT": SqlType.INTEGER,
    "INTEGER": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "SMALLINT": SqlType.INTEGER,
    "INT4": SqlType.INTEGER,
    "INT8": SqlType.INTEGER,
    "REAL": SqlType.REAL,
    "FLOAT": SqlType.REAL,
    "DOUBLE": SqlType.REAL,
    "TEXT": SqlType.TEXT,
    "VARCHAR": SqlType.TEXT,
    "CHAR": SqlType.TEXT,
    "STRING": SqlType.TEXT,
    "BOOL": SqlType.BOOLEAN,
    "BOOLEAN": SqlType.BOOLEAN,
}


def resolve_type_name(name: str | None) -> SqlType | None:
    """Map a declared column type name to a runtime type (None = dynamic,
    SQLite-style)."""
    if name is None:
        return None
    base = name.upper().split("(")[0].strip()
    if base in _TYPE_NAME_MAP:
        return _TYPE_NAME_MAP[base]
    return None


@dataclass
class Column:
    """A table column."""

    name: str
    declared_type: SqlType | None = None
    not_null: bool = False


@dataclass
class Table:
    """A base table with in-memory row storage."""

    name: str
    columns: list[Column]
    rows: list[tuple[SqlValue, ...]] = field(default_factory=list)

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == lowered:
                return i
        raise CatalogError(f"no column {name!r} in table {self.name!r}")

    def insert_row(self, row: tuple[SqlValue, ...]) -> None:
        if len(row) != len(self.columns):
            raise ValueError_(
                f"table {self.name} has {len(self.columns)} columns "
                f"but {len(row)} values were supplied"
            )
        for col, value in zip(self.columns, row):
            if col.not_null and value is None:
                raise ValueError_(f"NOT NULL constraint failed: {col.name}")
        self.rows.append(tuple(row))


@dataclass
class Index:
    """Index metadata (logical only)."""

    name: str
    table: str
    exprs: tuple[A.Expr, ...]
    where: A.Expr | None = None
    unique: bool = False


@dataclass
class View:
    """A view: a named query with optional column renaming."""

    name: str
    columns: tuple[str, ...]
    query: A.Select


class Database:
    """The full catalog: tables, views, and indexes."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.views: dict[str, View] = {}
        self.indexes: dict[str, Index] = {}

    # -- lookup ------------------------------------------------------------

    def _key(self, name: str) -> str:
        return name.lower()

    def get_table(self, name: str) -> Table:
        table = self.tables.get(self._key(name))
        if table is None:
            raise CatalogError(f"no such table: {name}")
        return table

    def get_view(self, name: str) -> View | None:
        return self.views.get(self._key(name))

    def get_index(self, name: str) -> Index:
        index = self.indexes.get(self._key(name))
        if index is None:
            raise CatalogError(f"no such index: {name}")
        return index

    def indexes_on(self, table: str) -> list[Index]:
        k = self._key(table)
        return [ix for ix in self.indexes.values() if self._key(ix.table) == k]

    # -- DDL ----------------------------------------------------------------

    def create_table(self, table: Table, if_not_exists: bool = False) -> None:
        k = self._key(table.name)
        if k in self.tables or k in self.views:
            if if_not_exists:
                return
            raise CatalogError(f"relation {table.name!r} already exists")
        self.tables[k] = table

    def create_view(self, view: View) -> None:
        k = self._key(view.name)
        if k in self.tables or k in self.views:
            raise CatalogError(f"relation {view.name!r} already exists")
        self.views[k] = view

    def create_index(self, index: Index) -> None:
        k = self._key(index.name)
        if k in self.indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self.get_table(index.table)  # must exist
        self.indexes[k] = index

    def drop(self, kind: str, name: str, if_exists: bool = False) -> None:
        k = self._key(name)
        kind = kind.upper()
        if kind == "TABLE":
            if k in self.tables:
                del self.tables[k]
                for ix_name in [
                    n for n, ix in self.indexes.items() if self._key(ix.table) == k
                ]:
                    del self.indexes[ix_name]
                return
        elif kind == "VIEW":
            if k in self.views:
                del self.views[k]
                return
        elif kind == "INDEX":
            if k in self.indexes:
                del self.indexes[k]
                return
        else:
            raise CatalogError(f"cannot drop object of kind {kind!r}")
        if not if_exists:
            raise CatalogError(f"no such {kind.lower()}: {name}")
