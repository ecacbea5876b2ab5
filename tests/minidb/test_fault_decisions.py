"""Row-loop fault sites are decided once per loop.

A row loop's site features do not change from row to row, and fault
triggers are pure functions of those features, so the executor asks
:meth:`FaultInjector.matching` once per loop and calls
:meth:`FaultInjector.apply` per row.  These tests pin both halves:
deciding first and applying later is exactly the historical per-row
``fire``, and the engine's row loops really decide once.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.catalog import ALL_FAULTS
from repro.minidb import ast_nodes as A
from repro.minidb.engine import Engine
from repro.minidb.faults import (
    BugStatus,
    BugType,
    Fault,
    FaultInjector,
    expr_features,
)

# ---------------------------------------------------------------------------
# matching + apply == fire, for every catalog fault
# ---------------------------------------------------------------------------

SITES = sorted({site for fault in ALL_FAULTS for site in fault.sites})

#: Expression flags plus the site and statement flags the engine adds.
_EXPR_FLAGS = expr_features(A.Literal(0))
_BOOL_KEYS = [k for k, v in _EXPR_FLAGS.items() if isinstance(v, bool)] + [
    "in_subquery", "has_view", "stmt_has_cte", "negated", "correlated",
    "distinct", "arg_is_compound", "input_sorted", "explicit",
]
_INT_KEYS = [k for k, v in _EXPR_FLAGS.items() if type(v) is int] + ["group_count"]


def _choice(*values):
    return st.sampled_from(values)


#: Every feature a catalog trigger reads, each optional.  ``join_kinds``
#: may be None so the ``"CROSS" in ...`` lambdas raise, which
#: :meth:`Fault.applies` must turn into "does not match".
FEATURES = st.fixed_dictionaries(
    {},
    optional={
        **{key: st.booleans() for key in _BOOL_KEYS},
        "statement": _choice("SELECT", "UPDATE", "DELETE", "INSERT", "INSERT_SELECT"),
        "clause": _choice(
            "where", "fetch", "having", "join_on", "group_by", "values",
            "const_fold", "order_by", "limit", "set", "insert_source",
        ),
        "access_path": _choice("none", "full_scan", "index_scan"),
        "join_kinds": st.none() | st.lists(
            _choice("CROSS", "FULL", "INNER", "LEFT", "RIGHT"), unique=True
        ).map(lambda kinds: tuple(sorted(kinds))),
        "join_kind": _choice("CROSS", "FULL", "INNER", "LEFT", "RIGHT"),
        "rhs": _choice("list", "subquery"),
        "func": _choice("AVG", "COUNT", "MAX", "MIN", "SUM", "TOTAL"),
        "form": _choice("simple", "searched", "else"),
        "quantifier": _choice("ANY", "SOME", "ALL"),
        **{key: st.integers(min_value=0, max_value=12) for key in _INT_KEYS},
    },
)

SCALARS = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
VALUES = SCALARS | st.lists(st.tuples(SCALARS, SCALARS), max_size=3)


def _fire_interleaved(injector: FaultInjector, site: str, features, value):
    """``fire`` as it ran per row before sites were decided once per
    loop: each trigger checked just before that fault's effect."""
    for fault in injector.faults:
        if fault.applies(site, features):
            injector.fired.add(fault.fault_id)
            value = fault.apply_effect(value)
    return value


def _run_loop(step, values) -> list:
    """Feed *values* through *step* like a row loop, which stops at the
    first raised error."""
    out = []
    for value in values:
        try:
            out.append(("value", step(value)))
        except Exception as exc:
            out.append(("raised", type(exc), str(exc)))
            break
    return out


@settings(max_examples=150, deadline=None)
@given(
    site=st.sampled_from(SITES),
    features=FEATURES,
    rows=st.lists(VALUES, min_size=1, max_size=3),
)
def test_matching_then_apply_equals_fire(site, features, rows):
    """For each catalog fault alone and for the whole catalog stacked,
    deciding once and applying per row gives the values, raised errors
    and ``fired`` set of firing per row."""
    catalogs = [[fault] for fault in ALL_FAULTS if site in fault.sites]
    catalogs.append(ALL_FAULTS)
    for faults in catalogs:
        decided = FaultInjector(faults)
        matched = decided.matching(site, features)
        assert decided.fired == set()  # deciding has no side effects
        got = _run_loop(lambda v: decided.apply(matched, v), rows)

        fired = FaultInjector(faults)
        via_fire = _run_loop(lambda v: fired.fire(site, features, v), rows)
        reference = FaultInjector(faults)
        via_reference = _run_loop(
            lambda v: _fire_interleaved(reference, site, features, v), rows
        )
        assert got == via_fire == via_reference
        assert decided.fired == fired.fired == reference.fired


# ---------------------------------------------------------------------------
# The engine's row loops decide once
# ---------------------------------------------------------------------------

LOOP_SITES = (
    "where_result",
    "join_on_result",
    "having_result",
    "fetch_value",
    "update_where_result",
    "delete_where_result",
)


def _counting_engine() -> tuple[Engine, Counter]:
    """An engine with one always-true, value-preserving fault per row-loop
    site whose trigger counts its calls."""
    calls: Counter = Counter()

    def counting(site):
        def trigger(_features):
            calls[site] += 1
            return True

        return trigger

    faults = [
        Fault(
            fault_id=f"count.{site}",
            profile="sqlite",
            bug_type=BugType.LOGIC,
            status=BugStatus.FIXED,
            description="test fault: count trigger calls",
            sites=frozenset({site}),
            trigger=counting(site),
            effect="identity",
        )
        for site in LOOP_SITES
    ]
    return Engine(faults=faults), calls


#: Statement over table {t} -> trigger calls per site.  Each loop runs
#: over several rows, pairs or groups; ``fetch_value`` is decided once
#: per projected item.
PROGRAM = (
    ("SELECT a, b FROM {t} WHERE a > 1", {"where_result": 1, "fetch_value": 2}),
    (
        "SELECT x.a FROM {t} AS x JOIN {t} AS y ON x.a = y.a",
        {"join_on_result": 1, "fetch_value": 1},
    ),
    (
        "SELECT b, COUNT(*) FROM {t} GROUP BY b HAVING COUNT(*) > 0",
        {"having_result": 1, "fetch_value": 2},
    ),
    ("UPDATE {t} SET b = b + 0 WHERE a > 0", {"update_where_result": 1}),
    ("DELETE FROM {t} WHERE a > 100", {"delete_where_result": 1}),
)


def test_row_loop_sites_are_decided_once_per_loop():
    engine, calls = _counting_engine()
    engine.execute("CREATE TABLE t (a INT, b INT)")
    engine.execute("INSERT INTO t VALUES (1, 1), (2, 1), (3, 2), (4, 2)")
    engine.execute("CREATE TABLE e (a INT, b INT)")
    for sql, expected in PROGRAM:
        calls.clear()
        engine.execute(sql.format(t="t"))
        assert dict(calls) == expected, sql
        assert engine.faults.fired == {f"count.{s}" for s in expected}, sql

        # A loop over zero rows decides but never applies.
        engine.execute(sql.format(t="e"))
        assert engine.faults.fired == set(), sql
