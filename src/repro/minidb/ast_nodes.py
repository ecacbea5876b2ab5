"""Abstract syntax tree for MiniDB SQL.

The same AST is produced by the parser (:mod:`repro.minidb.parser`),
by the random generators (:mod:`repro.generator`), and transformed by the
test oracles (:mod:`repro.core`, :mod:`repro.baselines`).

Every node the generators and oracles build renders back to SQL text via
:meth:`Node.to_sql`; nodes only the parser builds (derived and VALUES
tables, DDL, UPDATE, DELETE) do not render.  Rendering is
deliberately over-parenthesized: the oracles compare *results* of queries,
never their text, so unambiguous round-tripping matters more than pretty
output.  This mirrors the paper's implementation note that folded queries
are derived "by replacing child nodes in the Abstract Syntax Tree"
(Section 4, Implementation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.minidb.values import SqlValue, sql_literal

# ---------------------------------------------------------------------------
# Base
# ---------------------------------------------------------------------------


class Node:
    """Base class for every AST node."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_sql()


class Expr(Node):
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (not descending into subqueries)."""
        return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and all sub-expressions, pre-order.

    Subquery bodies are not entered: a subquery is treated as an opaque
    expression, matching how the paper treats it as a single foldable
    unit (Section 3.1).
    """
    yield expr
    for child in expr.children():
        yield from walk(child)


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Rebuild *expr* bottom-up, replacing nodes where *fn* returns non-None.

    This is the ``ReplaceExpr`` primitive of Algorithm 1 (line 13): the
    oracles use it to substitute the folded constant for the chosen
    expression.  Matching is by object identity, handled by the caller's
    *fn*; the tree is copied so the original query is left intact.
    """
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    updates: dict[str, object] = {}
    for f in dataclasses.fields(expr):  # type: ignore[arg-type]
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            new = transform(value, fn)
            if new is not value:
                updates[f.name] = new
        elif isinstance(value, tuple) and value and isinstance(value[0], Expr):
            new_items = tuple(transform(v, fn) for v in value)
            if any(a is not b for a, b in zip(new_items, value)):
                updates[f.name] = new_items
        elif isinstance(value, tuple) and value and isinstance(value[0], CaseWhen):
            new_whens = tuple(
                CaseWhen(transform(w.condition, fn), transform(w.result, fn))
                for w in value
            )
            updates[f.name] = new_whens
    if updates:
        return dataclasses.replace(expr, **updates)  # type: ignore[type-var]
    return expr


def replace_node(root: Expr, target: Expr, replacement: Expr) -> Expr:
    """Return a copy of *root* with the node *target* (by identity)
    replaced by *replacement*."""

    def fn(node: Expr) -> Expr | None:
        return replacement if node is target else None

    return transform(root, fn)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Expr):
    """A constant literal (NULL, boolean, number, or string)."""

    value: SqlValue

    def to_sql(self) -> str:
        return sql_literal(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    table: str | None
    column: str

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column

    @property
    def key(self) -> str:
        """Canonical lookup key, e.g. ``t0.c1`` or ``c1``."""
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operator: ``-`` or ``NOT``."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        # A space avoids "--" (a SQL comment) when negations nest.
        return f"({self.op} {self.operand.to_sql()})"


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator: arithmetic, comparison, logical, ``||``, LIKE."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def to_sql(self) -> str:
        kw = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {kw} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with a value list."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.items)

    def to_sql(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {kw} ({inner}))"


@dataclass(frozen=True)
class CaseWhen:
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: Expr
    result: Expr


@dataclass(frozen=True)
class Case(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``.

    The searched form (``operand is None``) is what CODDTest emits for
    dependent-expression mappings (paper Section 3.2, "Constant
    propagation" -- likened to a polymorphic inline cache).
    """

    operand: Expr | None
    whens: tuple[CaseWhen, ...]
    else_: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        if self.operand is not None:
            out.append(self.operand)
        for w in self.whens:
            out.append(w.condition)
            out.append(w.result)
        if self.else_ is not None:
            out.append(self.else_)
        return tuple(out)

    def to_sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.to_sql())
        for w in self.whens:
            parts.append(f"WHEN {w.condition.to_sql()} THEN {w.result.to_sql()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.to_sql()}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST(expr AS type)``."""

    operand: Expr
    type_name: str

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.type_name})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar function or aggregate call."""

    name: str
    args: tuple[Expr, ...] = ()
    star: bool = False  # COUNT(*)
    distinct: bool = False

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def to_sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.to_sql() for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (subquery)``."""

    query: "Select"
    negated: bool = False

    def to_sql(self) -> str:
        kw = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({kw} ({self.query.to_sql()}))"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesized subquery used as a scalar expression."""

    query: "Select"

    def to_sql(self) -> str:
        return f"({self.query.to_sql()})"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (subquery)``."""

    operand: Expr
    query: "Select"
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {kw} ({self.query.to_sql()}))"


@dataclass(frozen=True)
class Quantified(Expr):
    """``expr op ANY|ALL|SOME (subquery)`` (paper Section 3.3)."""

    operand: Expr
    op: str
    quantifier: str  # ANY / ALL / SOME
    query: "Select"

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return (
            f"({self.operand.to_sql()} {self.op} "
            f"{self.quantifier} ({self.query.to_sql()}))"
        )


# ---------------------------------------------------------------------------
# FROM-clause table references
# ---------------------------------------------------------------------------


class TableRef(Node):
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class NamedTable(TableRef):
    """A base table or view, with optional alias and ``INDEXED BY`` hint."""

    name: str
    alias: str | None = None
    indexed_by: str | None = None

    def to_sql(self) -> str:
        sql = self.name
        if self.alias:
            sql += f" AS {self.alias}"
        if self.indexed_by:
            sql += f" INDEXED BY {self.indexed_by}"
        return sql

    @property
    def binding(self) -> str:
        """Name under which columns of this table are visible."""
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable(TableRef):
    """``(SELECT ...) AS alias`` -- one of the three relation sources of
    paper Section 3.4."""

    query: "Select"
    alias: str
    column_aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValuesTable(TableRef):
    """``(VALUES (...), (...)) AS alias(c0, c1)`` -- the table value
    constructor CODDTest folds relations into (paper Section 3.4)."""

    rows: tuple[tuple[Expr, ...], ...]
    alias: str
    column_aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class Join(TableRef):
    """A binary join between two table references."""

    kind: str  # INNER / LEFT / RIGHT / FULL / CROSS
    left: TableRef
    right: TableRef
    on: Expr | None = None

    def to_sql(self) -> str:
        kw = {
            "INNER": "INNER JOIN",
            "LEFT": "LEFT JOIN",
            "RIGHT": "RIGHT JOIN",
            "FULL": "FULL OUTER JOIN",
            "CROSS": "CROSS JOIN",
        }[self.kind]
        sql = f"{self.left.to_sql()} {kw} {self.right.to_sql()}"
        if self.on is not None:
            sql += f" ON {self.on.to_sql()}"
        return sql


# ---------------------------------------------------------------------------
# SELECT and other statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One item of the fetch (projection) list."""

    expr: Expr | None  # None means bare *
    alias: str | None = None
    table_star: str | None = None  # "t" for t.*

    def to_sql(self) -> str:
        if self.table_star is not None:
            return f"{self.table_star}.*"
        if self.expr is None:
            return "*"
        sql = self.expr.to_sql()
        if self.alias:
            sql += f" AS {self.alias}"
        return sql


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY term."""

    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class Cte:
    """One common table expression of a WITH clause (paper Section 3.4)."""

    name: str
    columns: tuple[str, ...]
    query: "Select | ValuesSource"

    def to_sql(self) -> str:
        cols = f"({', '.join(self.columns)})" if self.columns else ""
        return f"{self.name}{cols} AS ({self.query.to_sql()})"


@dataclass(frozen=True)
class Select(Node):
    """A SELECT statement (possibly compound via ``set_op``)."""

    items: tuple[SelectItem, ...]
    from_clause: TableRef | None = None
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    distinct: bool = False
    ctes: tuple[Cte, ...] = ()
    set_op: tuple[str, bool, "Select"] | None = None  # (op, all, rhs)

    def to_sql(self) -> str:
        parts: list[str] = []
        if self.ctes:
            parts.append("WITH " + ", ".join(c.to_sql() for c in self.ctes))
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.items))
        if self.from_clause is not None:
            parts.append("FROM " + self.from_clause.to_sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        sql = " ".join(parts)
        if self.set_op is not None:
            op, all_, rhs = self.set_op
            sql += f" {op}{' ALL' if all_ else ''} {rhs.to_sql()}"
        if self.order_by:
            sql += " ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
        if self.limit is not None:
            sql += " LIMIT " + self.limit.to_sql()
        if self.offset is not None:
            sql += " OFFSET " + self.offset.to_sql()
        return sql


@dataclass(frozen=True)
class ValuesSource(Node):
    """``VALUES (...), (...)`` used as an INSERT source or CTE body."""

    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class ColumnDef(Node):
    """Column definition in CREATE TABLE."""

    name: str
    type_name: str | None = None
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Node):
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Node):
    """``CREATE [UNIQUE] INDEX name ON table (expr, ...) [WHERE pred]``.

    Expression and partial indexes matter: the Listing-1 bug requires
    an expression index plus ``INDEXED BY``.
    """

    name: str
    table: str
    exprs: tuple[Expr, ...]
    where: Expr | None = None
    unique: bool = False


@dataclass(frozen=True)
class CreateView(Node):
    name: str
    columns: tuple[str, ...]
    query: Select


@dataclass(frozen=True)
class Drop(Node):
    kind: str  # TABLE / VIEW / INDEX
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert(Node):
    table: str
    columns: tuple[str, ...]
    source: ValuesSource | Select

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        return f"INSERT INTO {self.table}{cols} {self.source.to_sql()}"


@dataclass(frozen=True)
class Update(Node):
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete(Node):
    table: str
    where: Expr | None = None


Statement = (
    Select
    | Insert
    | Update
    | Delete
    | CreateTable
    | CreateIndex
    | CreateView
    | Drop
)


# ---------------------------------------------------------------------------
# Helpers used across generators and oracles
# ---------------------------------------------------------------------------

TRUE = Literal(True)
FALSE = Literal(False)
NULL = Literal(None)


def conjoin(exprs: list[Expr]) -> Expr:
    """AND together a non-empty list of expressions."""
    out = exprs[0]
    for e in exprs[1:]:
        out = Binary("AND", out, e)
    return out


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in *expr*, including those inside subqueries.

    Used by ``GenExpr`` (Algorithm 1, line 2) to compute the referenced
    column set {c_i}.  Subquery bodies *are* entered here because a
    correlated subquery's outer references make the whole expression
    dependent (paper Section 3.2) -- the caller filters to outer-scope
    columns.
    """
    found: list[ColumnRef] = []
    _collect_refs(expr, found)
    return found


def _collect_refs(expr: Expr, out: list[ColumnRef]) -> None:
    if isinstance(expr, ColumnRef):
        out.append(expr)
    for child in expr.children():
        _collect_refs(child, out)
    if isinstance(expr, (Exists, ScalarSubquery, InSubquery, Quantified)):
        _collect_select_refs(expr.query, out)


def _collect_select_refs(select: Select, out: list[ColumnRef]) -> None:
    for item in select.items:
        if item.expr is not None:
            _collect_refs(item.expr, out)
    if select.where is not None:
        _collect_refs(select.where, out)
    for e in select.group_by:
        _collect_refs(e, out)
    if select.having is not None:
        _collect_refs(select.having, out)
    for o in select.order_by:
        _collect_refs(o.expr, out)
    if select.set_op is not None:
        _collect_select_refs(select.set_op[2], out)
