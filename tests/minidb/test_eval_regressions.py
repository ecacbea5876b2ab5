"""Regression tests for evaluator correctness fixes.

Three pinned bugs:

1. A since-deleted memo of row-independent expression values was keyed
   by node identity alone, but fault triggers consume the
   ``clause``/``in_subquery`` site features: the same AST node reused
   across clauses (the folding oracle does exactly this) could replay a
   clause-conditioned fault's value into a clause where the fault must
   not fire.  The engine no longer memoizes expression values; these
   tests now pin that cache-on still equals cache-off for clause- and
   subquery-conditioned faults.
2. Scalar/IN subquery column-count validation used the first row, so a
   zero-row two-column subquery silently yielded NULL where SQLite
   raises "sub-select returns N columns - expected 1".  Validation now
   reads the result schema.
3. MIN/MAX over incomparable non-NULL values hit ``assert c is not
   None``: an AssertionError escapes the campaign's expected-error
   accounting and would be misfiled as an engine bug.  It is now a
   typed :class:`~repro.errors.TypeError_`.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.errors import TypeError_, ValueError_
from repro.minidb import ast_nodes as A
from repro.minidb.engine import Engine
from repro.minidb.faults import BugStatus, BugType, Fault
from repro.minidb.parser import parse_statement
from repro.minidb import values as V
from repro.perf import EvalCache


# ---------------------------------------------------------------------------
# Bug 1: eval memo must not alias values across clauses
# ---------------------------------------------------------------------------


def _where_only_invert(site: str) -> Fault:
    """A fault firing only when the expression sits in a WHERE clause."""
    return Fault(
        fault_id=f"test.where_only.{site}",
        profile="sqlite",
        bug_type=BugType.LOGIC,
        status=BugStatus.FIXED,
        description="test fault: invert, but only inside WHERE",
        sites=frozenset({site}),
        trigger=lambda features: features.get("clause") == "where",
        effect="invert",
    )


def _cross_clause_statement() -> A.Select:
    """A SELECT whose first select item *is* (same object) a
    row-independent subtree of its WHERE predicate -- the aliasing the
    folding oracle produces when it reuses a folded subtree across
    clauses.  The WHERE stays non-constant overall so the planner does
    not fold it away before the per-row evaluator runs."""
    stmt = parse_statement(
        "SELECT (1 BETWEEN 0 AND 2) FROM t "
        "WHERE (1 BETWEEN 0 AND 2) OR a = 1"
    )
    assert isinstance(stmt, A.Select)
    shared = stmt.where.left  # the Between node
    assert isinstance(shared, A.Between)
    items = (dataclasses.replace(stmt.items[0], expr=shared),) + stmt.items[1:]
    return dataclasses.replace(stmt, items=items)


def test_eval_memo_does_not_replay_clause_conditioned_faults():
    """Cache-on must equal cache-off when a fault fires in one clause
    only.  WHERE evaluates first: a memo keyed by node id alone would
    memoize the inverted WHERE-side value and replay it into the select
    list, where the fault's trigger says it must not fire."""
    results = {}
    for cached in (False, True):
        engine = Engine(faults=[_where_only_invert("between_result")])
        adapter = MiniDBAdapter(engine)
        if cached:
            adapter.attach_eval_cache(EvalCache())
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.execute("INSERT INTO t VALUES (1)")
        stmt = _cross_clause_statement()
        results[cached] = (
            engine.execute_ast(stmt).rows,
            frozenset(engine.faults.fired),
        )
    assert results[False] == results[True]
    rows, fired = results[True]
    # In WHERE the fault inverts the Between to FALSE, but the OR arm
    # keeps the row; in the select list the fault must NOT fire, so the
    # fetched value is the clean TRUE (a node-id-only memo replayed the
    # inverted FALSE here).
    assert rows == [(True,)]
    assert fired == frozenset({"test.where_only.between_result"})


def _subquery_only_invert(site: str) -> Fault:
    """A fault firing only for expressions inside a subquery."""
    return Fault(
        fault_id=f"test.subquery_only.{site}",
        profile="sqlite",
        bug_type=BugType.LOGIC,
        status=BugStatus.FIXED,
        description="test fault: invert, but only inside subqueries",
        sites=frozenset({site}),
        trigger=lambda features: bool(features.get("in_subquery")),
        effect="invert",
    )


def test_eval_memo_does_not_suppress_subquery_conditioned_faults():
    """The mirror case, on the ``in_subquery`` key component: the node
    evaluates first in the outer WHERE (fault must not fire) and then
    inside a scalar subquery in the select list (fault must fire).  A
    node-id-only memo would replay the clean outer value and the fault
    would never fire at all."""
    stmt = parse_statement(
        "SELECT (SELECT (1 IN (1, 2)) FROM t) FROM t "
        "WHERE (1 IN (1, 2)) OR a = 1"
    )
    assert isinstance(stmt, A.Select)
    shared = stmt.where.left
    assert isinstance(shared, A.InList)
    scalar_sub = stmt.items[0].expr
    assert isinstance(scalar_sub, A.ScalarSubquery)
    inner = scalar_sub.query
    inner = dataclasses.replace(
        inner,
        items=(dataclasses.replace(inner.items[0], expr=shared),),
    )
    stmt = dataclasses.replace(
        stmt,
        items=(
            dataclasses.replace(
                stmt.items[0], expr=dataclasses.replace(scalar_sub, query=inner)
            ),
        ),
    )

    results = {}
    for cached in (False, True):
        engine = Engine(faults=[_subquery_only_invert("in_list_result")])
        adapter = MiniDBAdapter(engine)
        if cached:
            adapter.attach_eval_cache(EvalCache())
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.execute("INSERT INTO t VALUES (1)")
        results[cached] = (
            engine.execute_ast(stmt).rows,
            frozenset(engine.faults.fired),
        )
    assert results[False] == results[True]
    rows, fired = results[True]
    # Outer WHERE: clean TRUE keeps the row.  Inner subquery: the fault
    # fires and inverts to FALSE (a node-id-only memo replayed TRUE).
    assert rows == [(False,)]
    assert fired == frozenset({"test.subquery_only.in_list_result"})


# ---------------------------------------------------------------------------
# Bug 2: zero-row subqueries still validate their column count
# ---------------------------------------------------------------------------

_TWO_COL_SETUP = [
    "CREATE TABLE t (a INT, b INT)",
    "INSERT INTO t VALUES (1, 10), (2, 20)",
]


def _sqlite3_error(queries: list[str]) -> str:
    conn = sqlite3.connect(":memory:")
    for sql in _TWO_COL_SETUP:
        conn.execute(sql)
    with pytest.raises(sqlite3.OperationalError) as exc:
        for sql in queries:
            conn.execute(sql).fetchall()
    conn.close()
    return str(exc.value)


@pytest.mark.parametrize(
    "query",
    [
        # Scalar-subquery operand, zero rows, two columns.
        "SELECT (SELECT a, b FROM t WHERE a > 100) FROM t",
        # IN-subquery operand, zero rows, two columns.
        "SELECT a FROM t WHERE a IN (SELECT a, b FROM t WHERE a > 100)",
    ],
)
def test_zero_row_multi_column_subquery_is_an_error(query):
    """MiniDB raises a typed error exactly where SQLite does: the
    column count of a sub-select is validated from its schema, even
    when it produces no rows (the old first-row check let these yield
    NULL / empty silently)."""
    engine = Engine()
    for sql in _TWO_COL_SETUP:
        engine.execute(sql)
    with pytest.raises(ValueError_, match="1 column"):
        engine.execute(query)
    # Conformance: real SQLite rejects the same statement.
    assert "columns" in _sqlite3_error([query])


def test_single_column_zero_row_subqueries_still_yield_null_and_empty():
    """The fix must not over-reject: a *one*-column empty sub-select
    keeps its SQLite semantics (scalar -> NULL, IN -> no match)."""
    engine = Engine()
    for sql in _TWO_COL_SETUP:
        engine.execute(sql)
    rows = engine.execute(
        "SELECT (SELECT a FROM t WHERE a > 100) FROM t"
    ).rows
    assert rows == [(None,), (None,)]
    rows = engine.execute(
        "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a > 100)"
    ).rows
    assert rows == []


# ---------------------------------------------------------------------------
# Bug 3: MIN/MAX over incomparable values raises a typed error
# ---------------------------------------------------------------------------


def test_min_max_incomparable_values_raise_typed_error(monkeypatch):
    """Incomparable non-NULL aggregate inputs surface as TypeError_
    (an expected SQL error campaigns count), never AssertionError.
    ``V.compare`` returning a bare None for non-NULL operands is forced
    here to pin the defensive branch the old assert crashed on."""
    engine = Engine()
    engine.execute("CREATE TABLE t (a INT)")
    engine.execute("INSERT INTO t VALUES (1), (2)")
    monkeypatch.setattr(
        "repro.minidb.evaluator.V.compare", lambda a, b, mode: None
    )
    with pytest.raises(TypeError_, match="cannot order"):
        engine.execute("SELECT MIN(a) FROM t")
    with pytest.raises(TypeError_, match="cannot order"):
        engine.execute("SELECT MAX(a) FROM t")


def test_min_max_mixed_types_strict_profile_raises_typed_error():
    """End to end on a strict-typing dialect: text vs integer inputs to
    MIN are a typed comparison error, not an assertion."""
    from repro.dialects import make_engine

    engine = make_engine("duckdb")
    engine.execute("CREATE TABLE t (a INT)")
    engine.execute("INSERT INTO t VALUES (1), (2)")
    with pytest.raises(TypeError_):
        engine.execute(
            "SELECT MIN(CASE WHEN a = 1 THEN 'x' ELSE a END) FROM t"
        )


def test_min_max_agree_with_sqlite_on_comparable_inputs():
    """Cross-check with the real SQLite on inputs both engines order
    the same way (homogeneous text, numeric with NULLs): the typed-
    error fix must not drift the non-error results."""
    queries = [
        "SELECT MIN(a), MAX(a) FROM t",
        "SELECT MIN(s), MAX(s) FROM u",
        "SELECT MIN(a + 0.5), MAX(a * 2) FROM t",
    ]
    setup = [
        "CREATE TABLE t (a INT)",
        "INSERT INTO t VALUES (3), (NULL), (1), (7)",
        "CREATE TABLE u (s TEXT)",
        "INSERT INTO u VALUES ('pear'), (NULL), ('apple')",
    ]
    engine = Engine()
    conn = sqlite3.connect(":memory:")
    for sql in setup:
        engine.execute(sql)
        conn.execute(sql)
    for sql in queries:
        assert engine.execute(sql).rows == conn.execute(sql).fetchall(), sql
    conn.close()


def test_values_compare_strict_raises_typed_error_directly():
    with pytest.raises(TypeError_):
        V.compare("x", 1, V.TypingMode.STRICT)
