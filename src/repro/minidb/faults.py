"""Fault injection for MiniDB.

The paper evaluates CODDTest on five real DBMSs whose development
versions contained (unknown) bugs.  We reproduce that setting with
*injected faults*: each :class:`Fault` describes a bug modelled on one of
the paper's reported bug classes.  Faults are **context-sensitive**: a
trigger predicate inspects structured features of the evaluation site
(which clause, which statement, access path, expression shape, ...), just
as the real bugs required specific query shapes (e.g. the SQLite bug of
Listing 1 needs an aggregate subquery with GROUP BY under an indexed
outer query).

Because triggers depend on query *context*, a fault generally fires in
the original query but not in the auxiliary/folded queries (or vice
versa), which is exactly the asymmetry CODDTest exploits.  Whether each
baseline oracle can detect a fault is *measured* by the benchmark
harness, not hard-coded.

Fault sites instrumented in the engine:

========================  ====================================================
site                      fired when
========================  ====================================================
``where_result``          truth of a WHERE predicate for one row (SELECT)
``update_where_result``   truth of a WHERE predicate for one row (UPDATE)
``delete_where_result``   truth of a WHERE predicate for one row (DELETE)
``join_on_result``        truth of a JOIN ... ON predicate for one row pair
``having_result``         truth of a HAVING predicate for one group
``fetch_value``           value of a projection (fetch-clause) expression
``in_list_result``        result of ``expr IN (value, ...)``
``in_subquery_result``    result of ``expr IN (subquery)``
``case_result``           result of a CASE expression
``quantified_result``     result of ``expr op ANY/ALL (subquery)``
``exists_result``         result of ``EXISTS (subquery)``
``scalar_subquery``       result of a scalar subquery
``between_result``        result of ``[NOT] BETWEEN``
``like_result``           result of ``[NOT] LIKE``
``agg_finish``            final value of an aggregate (feature: ``func``)
``insert_select_rows``    row list produced by an INSERT ... SELECT source
``distinct_rows``         row list after DISTINCT elimination
``order_rows``            row list after ORDER BY
``group_rows``            group list after GROUP BY
``limit_rows``            row list after LIMIT/OFFSET
``values_rows``           row list produced by a VALUES table constructor
``parse``                 a statement was parsed (features: statement kind)
========================  ====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import EngineCrash, EngineHang, InternalError
from repro.minidb import ast_nodes as A

Features = Mapping[str, Any]
Trigger = Callable[[Features], bool]


class BugType(enum.Enum):
    """Bug categories of paper Table 1."""

    LOGIC = "logic"
    INTERNAL_ERROR = "internal error"
    CRASH = "crash"
    HANG = "hang"


class BugStatus(enum.Enum):
    """Report status categories of paper Table 1."""

    FIXED = "fixed"
    VERIFIED = "verified"


#: Effects a logic fault can apply to a predicate/value/row-list.
_VALUE_EFFECTS = {
    "force_true": lambda v: True,
    "force_false": lambda v: False,
    "force_null": lambda v: None,
    "invert": lambda v: (None if v is None else not v),
    "null_as_true": lambda v: (True if v is None else v),
    "null_as_false": lambda v: (False if v is None else v),
    "zero": lambda v: 0,
    "one": lambda v: 1,
    "negate_number": lambda v: (-v if isinstance(v, (int, float)) else v),
    "off_by_one": lambda v: (v + 1 if isinstance(v, (int, float)) else v),
    "stringify": lambda v: (str(v) if v is not None and not isinstance(v, str) else v),
    "empty_rows": lambda v: [],
    "drop_first_row": lambda v: v[1:],
    "dup_first_row": lambda v: (v + [v[0]] if v else v),
    "identity": lambda v: v,
}


@dataclass(frozen=True)
class Fault:
    """One injectable bug.

    ``paper_ref`` ties the fault back to the paper's bug description
    (listing number or Section 4 prose) so EXPERIMENTS.md can audit the
    catalog against the paper.
    """

    fault_id: str
    profile: str
    bug_type: BugType
    status: BugStatus
    description: str
    sites: frozenset[str]
    #: Must be a pure function of its feature dict: no state, no side
    #: effects, the same answer for the same features.  The engine
    #: relies on this to decide a row-loop site once per loop
    #: (:meth:`FaultInjector.matching`) and apply the decision per row.
    #: A trigger that raises counts as not matching (:meth:`applies`).
    trigger: Trigger
    effect: str = "identity"
    paper_ref: str = ""
    #: Earliest "introduction year" used by the bug-latency analysis
    #: (paper Section 4.2, "Results on bugs introduction times").
    introduced_year: int = 2023

    def applies(self, site: str, features: Features) -> bool:
        if site not in self.sites:
            return False
        try:
            return bool(self.trigger(features))
        except Exception:  # trigger bugs must never mask engine behaviour
            return False

    def apply_effect(self, value: Any) -> Any:
        if self.bug_type is BugType.INTERNAL_ERROR:
            raise InternalError(f"injected internal error: {self.fault_id}")
        if self.bug_type is BugType.CRASH:
            raise EngineCrash(f"injected crash: {self.fault_id}")
        if self.bug_type is BugType.HANG:
            raise EngineHang(f"injected hang: {self.fault_id}")
        fn = _VALUE_EFFECTS.get(self.effect)
        if fn is None:
            raise ValueError(f"unknown fault effect {self.effect!r}")
        return fn(value)


class FaultInjector:
    """Holds the active fault set for one engine instance.

    ``fired`` accumulates the ids of faults that actually changed engine
    behaviour since the last :meth:`reset_fired`; the campaign runner uses
    this for ground-truth bug attribution and deduplication (the paper
    deduplicates reports before counting "unique bugs").
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults: list[Fault] = list(faults or [])
        self.fired: set[str] = set()
        self._by_site: dict[str, list[Fault]] = {}
        self._rebuild()

    def _rebuild(self) -> None:
        self._by_site.clear()
        for fault in self.faults:
            for site in fault.sites:
                self._by_site.setdefault(site, []).append(fault)

    def reset_fired(self) -> None:
        self.fired.clear()

    def matching(self, site: str, features: Features) -> tuple[Fault, ...]:
        """The faults at *site* whose triggers hold for *features*, in
        catalog order.  Has no side effects, so a row loop whose feature
        dict is fixed decides its site once and calls :meth:`apply` per
        row: triggers are pure (see :attr:`Fault.trigger`)."""
        candidates = self._by_site.get(site)
        if not candidates:
            return ()
        return tuple(f for f in candidates if f.applies(site, features))

    def apply(self, faults: tuple[Fault, ...], value: Any) -> Any:
        """Apply *faults* (a :meth:`matching` result) to *value* in
        order.  Each id enters ``fired`` before its effect can raise."""
        for fault in faults:
            self.fired.add(fault.fault_id)
            value = fault.apply_effect(value)
        return value

    def fire(self, site: str, features: Features, value: Any) -> Any:
        """Apply every matching fault at *site* to *value* (in order)."""
        return self.apply(self.matching(site, features), value)

    def has_site(self, site: str) -> bool:
        """Whether any fault listens at *site*.  Hot paths check this
        before building the site-feature dict: with an empty catalog (the
        common faults-off campaign) the dict would be constructed per row
        only for :meth:`fire` to discard it."""
        return bool(self._by_site.get(site))

    @property
    def empty(self) -> bool:
        return not self.faults


# ---------------------------------------------------------------------------
# Expression feature extraction (for triggers)
# ---------------------------------------------------------------------------


def expr_features(expr: A.Expr, catalog: Any = None) -> dict[str, Any]:
    """Structural flags of an expression, consumed by fault triggers.

    Computed once per expression (the engine caches by node identity) so
    per-row fault hooks stay cheap.  When *catalog* (a
    :class:`~repro.minidb.catalog.Database`) is provided, subqueries over
    views inherit the view body's aggregate/GROUP BY flags -- the paper's
    Listing 1 routes its GROUP BY through a view.
    """
    flags = {
        "has_subquery": False,
        "has_agg_subquery": False,
        "has_group_by_subquery": False,
        "has_correlated_subquery": False,
        "has_exists": False,
        "has_in_list": False,
        "in_list_size": 0,
        "has_large_int": False,
        "has_in_subquery": False,
        "has_case": False,
        "has_quantified": False,
        "has_between": False,
        "has_not_between": False,
        "has_like": False,
        "has_avg": False,
        "has_version_fn": False,
        "has_cast": False,
        "has_is_null": False,
        "has_not": False,
        "has_concat": False,
        "subquery_no_from": False,
        "is_constant": True,
        "depth": 0,
        "node_count": 0,
    }
    _scan(expr, flags, 1, catalog)
    return flags


def _scan(expr: A.Expr, flags: dict[str, Any], depth: int, catalog: Any = None) -> None:
    flags["depth"] = max(flags["depth"], depth)
    flags["node_count"] += 1
    if isinstance(expr, A.ColumnRef):
        flags["is_constant"] = False
    elif isinstance(expr, A.Literal):
        if isinstance(expr.value, int) and abs(expr.value) > 2**31:
            flags["has_large_int"] = True
    elif isinstance(expr, A.InList):
        flags["has_in_list"] = True
        flags["in_list_size"] = max(flags["in_list_size"], len(expr.items))
    elif isinstance(expr, A.InSubquery):
        flags["has_in_subquery"] = True
    elif isinstance(expr, A.Case):
        flags["has_case"] = True
    elif isinstance(expr, A.Quantified):
        flags["has_quantified"] = True
    elif isinstance(expr, A.Between):
        flags["has_between"] = True
        if expr.negated:
            flags["has_not_between"] = True
    elif isinstance(expr, A.Exists):
        flags["has_exists"] = True
    elif isinstance(expr, A.IsNull):
        flags["has_is_null"] = True
    elif isinstance(expr, A.Cast):
        flags["has_cast"] = True
    elif isinstance(expr, A.Binary) and expr.op in ("LIKE", "NOT LIKE"):
        flags["has_like"] = True
    elif isinstance(expr, A.Binary) and expr.op == "||":
        flags["has_concat"] = True
    elif isinstance(expr, A.Unary) and expr.op.upper() == "NOT":
        flags["has_not"] = True
    elif isinstance(expr, A.FuncCall):
        name = expr.name.upper()
        if name == "AVG":
            flags["has_avg"] = True
        if name == "VERSION":
            flags["has_version_fn"] = True
    if isinstance(expr, (A.Exists, A.ScalarSubquery, A.InSubquery, A.Quantified)):
        flags["has_subquery"] = True
        flags["is_constant"] = False  # conservatively treat as non-constant
        if _select_chain_has_no_from(expr.query):
            flags["subquery_no_from"] = True
        _scan_select(expr.query, flags, catalog)
    for child in expr.children():
        _scan(child, flags, depth + 1, catalog)


def _scan_select(select: A.Select, flags: dict[str, Any], catalog: Any = None) -> None:
    from repro.minidb.ast_nodes import column_refs

    own_tables = _select_binding_names(select)
    if catalog is not None:
        _absorb_view_flags(select.from_clause, flags, catalog, set())
    for item in select.items:
        if item.expr is None:
            continue
        for node in A.walk(item.expr):
            if isinstance(node, A.FuncCall) and node.name.upper() in (
                "COUNT",
                "SUM",
                "AVG",
                "MIN",
                "MAX",
            ):
                flags["has_agg_subquery"] = True
        for ref in column_refs(item.expr):
            if ref.table is not None and ref.table not in own_tables:
                flags["has_correlated_subquery"] = True
    if select.group_by:
        flags["has_group_by_subquery"] = True
    if select.where is not None:
        for ref in column_refs(select.where):
            if ref.table is not None and ref.table not in own_tables:
                flags["has_correlated_subquery"] = True


def _absorb_view_flags(
    ref: A.TableRef | None, flags: dict[str, Any], catalog: Any, seen: set[str]
) -> None:
    """Fold a referenced view's aggregate/GROUP BY structure into the
    subquery flags (Listing 1 reaches its GROUP BY through a view)."""
    if ref is None:
        return
    if isinstance(ref, A.NamedTable):
        key = ref.name.lower()
        if key in seen:
            return
        seen.add(key)
        view = catalog.views.get(key) if hasattr(catalog, "views") else None
        if view is not None:
            body = view.query
            if body.group_by:
                flags["has_group_by_subquery"] = True
            for item in body.items:
                if item.expr is None:
                    continue
                for node in A.walk(item.expr):
                    if isinstance(node, A.FuncCall) and node.name.upper() in (
                        "COUNT", "SUM", "AVG", "MIN", "MAX",
                    ):
                        flags["has_agg_subquery"] = True
            _absorb_view_flags(body.from_clause, flags, catalog, seen)
    elif isinstance(ref, A.Join):
        _absorb_view_flags(ref.left, flags, catalog, seen)
        _absorb_view_flags(ref.right, flags, catalog, seen)
    elif isinstance(ref, A.DerivedTable):
        _absorb_view_flags(ref.query.from_clause, flags, catalog, seen)


def _select_chain_has_no_from(select: A.Select) -> bool:
    """True when every arm of a (possibly compound) SELECT lacks a FROM
    clause -- the shape of the ``UNION`` chains CODDTest substitutes for
    folded value lists (paper Section 3.3)."""
    if select.from_clause is not None:
        return False
    if select.set_op is not None:
        return _select_chain_has_no_from(select.set_op[2])
    return True


def _select_binding_names(select: A.Select) -> set[str]:
    names: set[str] = set()

    def visit(ref: A.TableRef | None) -> None:
        if ref is None:
            return
        if isinstance(ref, A.NamedTable):
            names.add(ref.binding)
        elif isinstance(ref, (A.DerivedTable, A.ValuesTable)):
            names.add(ref.alias)
        elif isinstance(ref, A.Join):
            visit(ref.left)
            visit(ref.right)

    visit(select.from_clause)
    for cte in select.ctes:
        names.add(cte.name)
    return names


def always(_features: Features) -> bool:
    """Trigger that always fires at its sites."""
    return True


def feature_is(**conditions: Any) -> Trigger:
    """Trigger matching exact feature values, e.g.
    ``feature_is(statement="SELECT", access_path="index_scan")``."""

    def trig(features: Features) -> bool:
        return all(features.get(k) == v for k, v in conditions.items())

    return trig


def feature_true(*names: str) -> Trigger:
    """Trigger requiring all the named features to be truthy."""

    def trig(features: Features) -> bool:
        return all(features.get(n) for n in names)

    return trig


def all_of(*triggers: Trigger) -> Trigger:
    def trig(features: Features) -> bool:
        return all(t(features) for t in triggers)

    return trig


def any_of(*triggers: Trigger) -> Trigger:
    def trig(features: Features) -> bool:
        return any(t(features) for t in triggers)

    return trig
