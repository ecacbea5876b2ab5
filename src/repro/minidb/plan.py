"""Logical plans for MiniDB SELECT execution.

A :class:`SelectPlan` is the planned form of one SELECT core (plus its
compound/ORDER/LIMIT tail).  Plans carry:

* the resolved source tree (scans with chosen access paths, joins),
* the projection with ``*`` already expanded,
* precomputed fault-trigger features for each predicate, and
* a **fingerprint**: a literal-free structural digest standing in for the
  paper's "unique query plan" metric (Table 3, Figure 3).  Access-path
  choices and subquery structure are part of the fingerprint, so
  workloads that exercise more planner behaviour produce more unique
  fingerprints -- the property the paper's metric is designed to capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.minidb import ast_nodes as A

# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """Ordered list of (binding, column-name) pairs describing a row."""

    entries: tuple[tuple[str | None, str], ...]
    #: :meth:`matches` results by ``(table, column)``.  ``entries`` never
    #: change, so an entry can never go stale.
    _matches: dict[tuple[str | None, str], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, table: str | None, column: str) -> tuple[int, ...]:
        """Indexes of entries matching a (possibly unqualified) reference.

        The evaluator resolves a column reference on every row, so each
        ``(table, column)`` is resolved once per schema and memoized.
        """
        key = (table, column)
        found = self._matches.get(key)
        if found is None:
            col = column.lower()
            tab = table.lower() if table is not None else None
            found = tuple(
                i
                for i, (binding, name) in enumerate(self.entries)
                if name.lower() == col
                and (tab is None or (binding is not None and binding.lower() == tab))
            )
            self._matches[key] = found
        return found

    @staticmethod
    def concat(left: "Schema", right: "Schema") -> "Schema":
        return Schema(left.entries + right.entries)


# ---------------------------------------------------------------------------
# Source plans (FROM-clause trees)
# ---------------------------------------------------------------------------


class SourcePlan:
    """Base class of FROM-tree plan nodes."""

    schema: Schema

    def fingerprint(self) -> str:
        raise NotImplementedError


@dataclass
class ScanPlan(SourcePlan):
    """Scan of a base table, with a chosen access path.

    MiniDB has no physical indexes; ``access_path`` is planner metadata
    that (a) feeds fault triggers -- bugs like paper Listing 1 require an
    indexed path -- and (b) differentiates plan fingerprints.
    """

    table_name: str
    binding: str
    schema: Schema
    access_path: str = "full_scan"  # or "index_scan"
    index_name: str | None = None

    def fingerprint(self) -> str:
        # The index *name* is random per state; only the access-path
        # choice is plan structure (unique-plan counts would otherwise
        # be dominated by name churn).
        if self.access_path == "index_scan":
            return f"SCAN({self.table_name}:ix)"
        return f"SCAN({self.table_name})"


@dataclass
class SubplanScan(SourcePlan):
    """A view or derived table: a nested SELECT plan bound to an alias."""

    plan: "SelectPlan"
    binding: str
    schema: Schema
    origin: str = "derived"  # "view" | "derived" | "cte"

    def fingerprint(self) -> str:
        return f"{self.origin.upper()}({self.plan.fingerprint()})"


@dataclass
class CteScan(SourcePlan):
    """Reference to a CTE materialized at statement start."""

    name: str
    binding: str
    schema: Schema

    def fingerprint(self) -> str:
        return f"CTE({self.name})"


@dataclass
class ValuesScanPlan(SourcePlan):
    """A ``VALUES (...)`` table constructor used as a relation."""

    rows: tuple[tuple[A.Expr, ...], ...]
    binding: str
    schema: Schema

    def fingerprint(self) -> str:
        return f"VALUES[{len(self.rows)}x{len(self.schema)}]"


@dataclass
class JoinPlan(SourcePlan):
    """Nested-loop join of two source plans."""

    kind: str
    left: SourcePlan
    right: SourcePlan
    on: A.Expr | None
    schema: Schema
    on_features: dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        on_mark = ":on" if self.on is not None else ""
        return (
            f"JOIN[{self.kind}{on_mark}]"
            f"({self.left.fingerprint()},{self.right.fingerprint()})"
        )


# ---------------------------------------------------------------------------
# Select plans
# ---------------------------------------------------------------------------


@dataclass
class PlannedItem:
    """One resolved projection item (``*`` already expanded)."""

    expr: A.Expr
    name: str
    features: dict[str, Any] = field(default_factory=dict)


@dataclass
class SelectPlan:
    """Planned SELECT (core + compound tail)."""

    source: SourcePlan | None
    where: A.Expr | None
    where_features: dict[str, Any]
    group_by: tuple[A.Expr, ...]
    having: A.Expr | None
    having_features: dict[str, Any]
    items: list[PlannedItem]
    distinct: bool
    order_by: tuple[A.OrderItem, ...]
    limit: A.Expr | None
    offset: A.Expr | None
    set_op: tuple[str, bool, "SelectPlan"] | None
    ctes: tuple[tuple[str, tuple[str, ...], "SelectPlan | tuple"], ...]
    has_aggregates: bool
    #: True when the optimizer proved the WHERE clause constant-false and
    #: the executor may skip the scan entirely -- the "different code
    #: path" a folded query takes (paper Listing 1 discussion).
    where_const_false: bool = False
    #: Constant-true WHERE removed by the optimizer.
    where_const_true: bool = False

    @property
    def out_columns(self) -> list[str]:
        return [item.name for item in self.items]

    def fingerprint(self) -> str:
        parts: list[str] = []
        if self.ctes:
            parts.append(f"WITH[{len(self.ctes)}]")
        src = self.source.fingerprint() if self.source else "NOSRC"
        parts.append(src)
        if self.where is not None or self.where_const_false or self.where_const_true:
            if self.where_const_false:
                parts.append("W=FALSE")
            elif self.where_const_true:
                parts.append("W=TRUE")
            else:
                parts.append("W" + _expr_digest(self.where))
        if self.group_by:
            parts.append(f"G[{len(self.group_by)}]")
        if self.having is not None:
            parts.append("H" + _expr_digest(self.having))
        if self.has_aggregates:
            parts.append("AGG")
        if self.distinct:
            parts.append("D")
        fetch_subqs = [
            _expr_digest(item.expr)
            for item in self.items
            if item.features.get("has_subquery")
        ]
        if fetch_subqs:
            parts.append("F" + "".join(fetch_subqs))
        if self.order_by:
            parts.append("O")
        if self.limit is not None:
            parts.append("L")
        sql = "SEL(" + ";".join(parts) + ")"
        if self.set_op is not None:
            op, all_, rhs = self.set_op
            sql += f"+{op}{'ALL' if all_ else ''}({rhs.fingerprint()})"
        return sql


def _expr_digest(expr: A.Expr | None) -> str:
    """Literal-free structural digest of the subquery content of an
    expression; plain expressions digest to "" so that expression depth
    alone does not create new 'plans' (paper Section 4.3 finding)."""
    if expr is None:
        return ""
    marks: list[str] = []
    for node in A.walk(expr):
        if isinstance(node, (A.ScalarSubquery, A.Exists, A.InSubquery, A.Quantified)):
            marks.append(_select_digest(node.query))
    return "{" + ",".join(marks) + "}" if marks else ""


def _select_digest(select: A.Select) -> str:
    parts: list[str] = ["sq"]
    tables: list[str] = []
    _collect_tables(select.from_clause, tables)
    parts.append(",".join(tables))
    if select.where is not None:
        parts.append("w")
    if select.group_by:
        parts.append("g")
    if select.having is not None:
        parts.append("h")
    for item in select.items:
        if item.expr is not None and isinstance(item.expr, A.FuncCall):
            if item.expr.name.upper() in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                parts.append("agg:" + item.expr.name.upper())
    if select.limit is not None:
        parts.append("l")
    inner = _expr_digest(select.where)
    if inner:
        parts.append(inner)
    return "(" + ";".join(parts) + ")"


def _collect_tables(ref: A.TableRef | None, out: list[str]) -> None:
    if ref is None:
        return
    if isinstance(ref, A.NamedTable):
        out.append(ref.name)
    elif isinstance(ref, A.DerivedTable):
        out.append("drv")
        _collect_tables(ref.query.from_clause, out)
    elif isinstance(ref, A.ValuesTable):
        out.append("vals")
    elif isinstance(ref, A.Join):
        out.append(ref.kind[0].lower())
        _collect_tables(ref.left, out)
        _collect_tables(ref.right, out)
