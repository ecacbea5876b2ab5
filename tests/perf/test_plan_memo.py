"""Bit-identity of the plan-skeleton memo.

The memo shares FROM-clause planning across statements that differ only
in expression literals (the CODDTest original/folded pair).  It must be
observationally invisible: a memo hit answers like re-planning would and
leaves exactly the side effects re-planning would have.
"""

from __future__ import annotations

from repro import MiniDBAdapter, make_engine
from repro.perf import EvalCache


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
