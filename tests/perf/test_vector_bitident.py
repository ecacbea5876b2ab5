"""Bit-identity of vectorized evaluation and the plan-skeleton cache.

Two throughput levers landed together and share one contract with the
evaluation cache: they must be observationally invisible.  The executor
evaluates every batch of at least ``_VECTOR_MIN_ROWS`` rows
column-at-a-time; raising that threshold to ``sys.maxsize`` (the test
seam :func:`_vectorize`) sends every batch through the scalar reference
loop instead.  For any seed, a campaign on the shipped path produces the
identical ``CampaignStats.signature()`` and report sequence as one on
the scalar loop, and a plan-memo hit leaves exactly the side effects
re-planning would have.  The property test at the bottom pins the
vector/scalar equivalence at the evaluator level -- values, coverage
tags, fired fault ids, and error behaviour -- over seeded random
expressions.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.minidb.executor
from repro import CoddTestOracle, MiniDBAdapter, make_engine
from repro.baselines import DQEOracle, EETOracle, NoRECOracle, TLPOracle
from repro.errors import ReproError
from repro.generator.expr_gen import ExprGenerator, ScopeColumn
from repro.minidb.evaluator import (
    EvalCtx,
    Frame,
    SideEffectSnapshot,
    evaluate,
    evaluate_vector,
    vector_safe,
)
from repro.minidb.plan import Schema
from repro.minidb.values import SqlType
from repro.perf import EvalCache
from repro.runner.campaign import Campaign

#: The executor's batch threshold as shipped.
_SHIPPED_MIN_ROWS = repro.minidb.executor._VECTOR_MIN_ROWS


def _vectorize(patch: pytest.MonkeyPatch, enabled: bool) -> None:
    """Restore the shipped batch threshold, or raise it past any batch
    so only the scalar reference loop runs."""
    patch.setattr(
        repro.minidb.executor,
        "_VECTOR_MIN_ROWS",
        _SHIPPED_MIN_ROWS if enabled else sys.maxsize,
    )


def _run(oracle_factory, seed, tests=120, cache=None):
    oracle = oracle_factory()
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    campaign = Campaign(oracle, adapter, seed=seed, cache=cache)
    return campaign.run(n_tests=tests)


ORACLES = {
    "coddtest": lambda: CoddTestOracle(max_depth=4),
    "coddtest-subq": lambda: CoddTestOracle(max_depth=3, subquery_only=True),
    "norec": NoRECOracle,
    "tlp": TLPOracle,
    "dqe": DQEOracle,
    "eet": EETOracle,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_vector_on_matches_vector_off(name, monkeypatch):
    on = _run(ORACLES[name], seed=11)
    _vectorize(monkeypatch, False)
    off = _run(ORACLES[name], seed=11)
    assert on.signature() == off.signature()
    assert [r.to_dict() for r in on.reports] == [
        r.to_dict() for r in off.reports
    ]


def test_vector_with_cache_matches_plain(monkeypatch):
    """The shipped configuration (cache + vector + plan memo) against
    the fully unaccelerated campaign."""
    on = _run(ORACLES["coddtest"], seed=13, cache=EvalCache())
    _vectorize(monkeypatch, False)
    off = _run(ORACLES["coddtest"], seed=13)
    assert on.signature() == off.signature()


# ---------------------------------------------------------------------------
# Plan-skeleton cache
# ---------------------------------------------------------------------------


def _cached_adapter():
    adapter = MiniDBAdapter(make_engine("sqlite"))
    cache = EvalCache()
    adapter.attach_eval_cache(cache)
    return adapter, cache


def test_plan_memo_shares_across_literal_variants():
    """The O/F pattern: statements differing only in expression
    literals share one FROM planning."""
    adapter, cache = _cached_adapter()
    adapter.execute("CREATE TABLE t (a INT, b INT)")
    adapter.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    adapter.execute("SELECT a FROM t WHERE a > 1")
    assert cache.stats.plan_hits == 0
    hits_before = cache.stats.plan_hits
    rows = adapter.execute("SELECT b FROM t WHERE a > 2").rows
    assert rows == [(30,)]
    assert cache.stats.plan_hits == hits_before + 1


def test_plan_memo_invalidates_on_ddl():
    adapter, cache = _cached_adapter()
    adapter.execute("CREATE TABLE t (a INT)")
    adapter.execute("INSERT INTO t VALUES (1), (2)")
    adapter.execute("SELECT a FROM t WHERE a > 0")
    adapter.execute("CREATE INDEX ix ON t (a)")  # bumps state_version
    hits_before = cache.stats.plan_hits
    rows = adapter.execute("SELECT a FROM t WHERE a = 2").rows
    assert rows == [(2,)]
    assert cache.stats.plan_hits == hits_before  # re-planned, no stale hit


def test_plan_memo_skips_literal_bearing_from_clauses():
    """Literal values steer planning (derived-table bodies), so a FROM
    clause containing any literal bypasses the memo entirely."""
    adapter, cache = _cached_adapter()
    adapter.execute("CREATE TABLE t (a INT)")
    adapter.execute("INSERT INTO t VALUES (5)")
    memo = adapter.engine._plan_memo
    sql = "SELECT x.c FROM (SELECT 1 AS c FROM t) AS x"
    assert adapter.execute(sql).rows == [(1,)]
    # Only the derived table's literal-free *inner* FROM was stored;
    # the literal-bearing outer ref was bypassed.
    before = set(memo)
    assert all(key[1][0] == "NamedTable" for key in before)
    misses = cache.stats.plan_misses
    hits = cache.stats.plan_hits
    assert adapter.execute(sql + " WHERE x.c = 1").rows == [(1,)]
    assert set(memo) == before  # still nothing stored for the outer ref
    assert cache.stats.plan_misses == misses + 1  # outer bypass counted
    assert cache.stats.plan_hits == hits + 1  # inner FROM reused


def test_plan_memo_hit_does_not_leak_access_paths():
    """ScanPlan access paths are chosen per statement and mutate the
    plan; memo hits must hand out clones, so an indexed equality query
    and a full scan sharing the skeleton both answer correctly."""
    adapter, _cache = _cached_adapter()
    adapter.execute("CREATE TABLE t (a INT, b INT)")
    adapter.execute("CREATE INDEX ix ON t (a)")
    adapter.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    indexed = adapter.execute("SELECT b FROM t WHERE a = 2").rows
    assert indexed == [(20,)]
    full = adapter.execute("SELECT a, b FROM t WHERE b >= 10").rows
    assert sorted(full) == [(1, 10), (2, 20), (3, 30)]
    # And back to an indexed probe off the (now cached) skeleton.
    assert adapter.execute("SELECT b FROM t WHERE a = 3").rows == [(30,)]


def test_plan_memo_replays_coverage_like_a_fresh_engine():
    """A program whose later statements hit the plan memo ends with the
    exact cumulative coverage an uncached engine accrues."""
    program = [
        "CREATE TABLE t (a INT, b INT)",
        "INSERT INTO t VALUES (1, 10), (2, 20)",
        "CREATE INDEX ix ON t (a)",
        "SELECT b FROM t WHERE a = 1",
        "SELECT b FROM t WHERE a = 2",   # plan-memo hit
        "SELECT a FROM t WHERE b > 5",   # same skeleton, different shape
    ]
    cached, cache = _cached_adapter()
    plain = MiniDBAdapter(make_engine("sqlite"))
    for adapter in (cached, plain):
        for sql in program:
            adapter.execute(sql)
    assert cache.stats.plan_hits > 0
    assert cached.engine.coverage.hits == plain.engine.coverage.hits


# ---------------------------------------------------------------------------
# Interleaving: toggling cache and vector mid-campaign changes nothing
# ---------------------------------------------------------------------------


def _run_toggled(seed: int, schedule, tests: int = 100):
    """*schedule* is a list of (use_cache, vectorize) pairs cycled at
    every campaign progress tick."""
    oracle = CoddTestOracle(max_depth=4)
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    cache = EvalCache()
    step = {"i": 0}

    with pytest.MonkeyPatch.context() as patch:

        def apply(mode) -> None:
            use_cache, vectorize = mode
            if use_cache:
                adapter.attach_eval_cache(cache)
            else:
                adapter._cache = None
                adapter.engine.eval_stats = None
            _vectorize(patch, vectorize)

        def toggle(_stats) -> None:
            step["i"] += 1
            apply(schedule[step["i"] % len(schedule)])

        campaign = Campaign(
            oracle, adapter, seed=seed, tests_per_state=10, on_progress=toggle
        )
        apply(schedule[0])
        return campaign.run(n_tests=tests)


@settings(max_examples=8, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=3),
)
def test_any_cache_vector_interleaving_is_bitidentical(schedule, seed):
    baseline = _run_toggled(seed, [(False, False)])
    toggled = _run_toggled(seed, schedule)
    assert toggled.signature() == baseline.signature()
    assert [r.to_dict() for r in toggled.reports] == [
        r.to_dict() for r in baseline.reports
    ]


# ---------------------------------------------------------------------------
# Property: evaluate_vector == per-row evaluate, side effects included
# ---------------------------------------------------------------------------

_PROP_SETUP = [
    "CREATE TABLE t0 (a INT, b INT, s TEXT)",
    "INSERT INTO t0 VALUES (1, 10, 'x'), (2, NULL, 'y'), "
    "(NULL, 30, 'x'), (4, 40, NULL), (2, 20, 'z')",
    "CREATE TABLE t1 (a INT, r REAL)",
    "INSERT INTO t1 VALUES (1, 1.0), (2, 2.5), (NULL, NULL), (5, -3.0)",
]

_PROP_ROWS = [
    (1, 10, "x"),
    (2, None, "y"),
    (None, 30, "x"),
    (4, 40, None),
    (2, 20, "z"),
]

_PROP_SCHEMA = Schema((("t0", "a"), ("t0", "b"), ("t0", "s")))

_PROP_SCOPE = [
    ScopeColumn("t0", "a", SqlType.INTEGER),
    ScopeColumn("t0", "b", SqlType.INTEGER),
    ScopeColumn("t0", "s", SqlType.TEXT),
]


def _prop_engine(buggy: bool):
    engine = make_engine("sqlite", with_catalog_faults=buggy)
    for sql in _PROP_SETUP:
        engine.execute(sql)
    engine.faults.reset_fired()
    return engine


def _scalar_reference(engine, expr, clause):
    """Row-major scalar evaluation: values or the aborting error."""
    frame = Frame(_PROP_SCHEMA, ())
    ctx = EvalCtx(engine, frame, clause)
    values, error = [], None
    try:
        for row in _PROP_ROWS:
            frame.row = row
            values.append(evaluate(expr, ctx))
    except ReproError as exc:
        error = (type(exc), str(exc))
    return values, error


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    buggy=st.booleans(),
)
def test_vector_path_matches_scalar_path_exactly(seed, buggy):
    rng = random.Random(seed)
    scalar_engine = _prop_engine(buggy)
    vector_engine = _prop_engine(buggy)
    schema_info = MiniDBAdapter(scalar_engine).schema()

    gen = ExprGenerator(
        rng,
        schema_info,
        max_depth=rng.randint(2, 5),
        supports_any_all=False,
    )
    if rng.random() < 0.5:
        expr = gen.predicate(list(_PROP_SCOPE)).expr
    else:
        expr = gen.scalar(list(_PROP_SCOPE)).expr
    clause = rng.choice(["where", "fetch", "group_by"])
    assume(vector_safe(expr, vector_engine))

    scalar_values, scalar_error = _scalar_reference(
        scalar_engine, expr, clause
    )

    template = Frame(_PROP_SCHEMA, ())
    vec_ctx = EvalCtx(vector_engine, template, clause)
    snap = SideEffectSnapshot(vector_engine)
    try:
        vector_values = evaluate_vector(expr, list(_PROP_ROWS), vec_ctx)
        vector_error = None
    except ReproError:
        # The executor contract: roll back and let the scalar loop be
        # the authority (including which error aborts, and after how
        # many rows of side effects).
        snap.rollback()
        vector_values, vector_error = _scalar_reference(
            vector_engine, expr, clause
        )

    if scalar_error is not None:
        assert vector_error == scalar_error
    else:
        assert vector_error is None
        assert vector_values == scalar_values
        assert [type(v) for v in vector_values] == [
            type(v) for v in scalar_values
        ]
    assert vector_engine.coverage.hits == scalar_engine.coverage.hits
    assert vector_engine.faults.fired == scalar_engine.faults.fired
