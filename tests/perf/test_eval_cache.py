"""Unit tests for the worker-local evaluation cache (repro.perf).

Covers the two memo domains (parse, statement), the state-token
invalidation on DML and DDL, side-effect replay (fired faults, recorded
errors), LRU bounds, cross-adapter sharing rules, and which job
consults which memo: campaigns and triage the parse memo alone, ddmin
the statement memo too.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.cli import main as cli_main
from repro.errors import CatalogError, InternalError
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.fleet.orchestrator import ReplayReducer
from repro.minidb.engine import Engine
from repro.minidb.faults import BugStatus, BugType, Fault, always
from repro.minidb.parser import parse_statement
from repro.perf import EvalCache, parser_normal
from repro.perf import cache as cache_module
from repro.perf.cache import INITIAL_STATE_TOKEN, advance_state_token
from repro.runner.campaign import CampaignStats
from repro.triage.replay import replay_clusters


def _invert_fault(site: str = "where_result") -> Fault:
    return Fault(
        fault_id=f"test.invert.{site}",
        profile="sqlite",
        bug_type=BugType.LOGIC,
        status=BugStatus.FIXED,
        description="test fault: invert a predicate verdict",
        sites=frozenset({site}),
        trigger=always,
        effect="invert",
    )


def _error_fault() -> Fault:
    return Fault(
        fault_id="test.internal",
        profile="sqlite",
        bug_type=BugType.INTERNAL_ERROR,
        status=BugStatus.FIXED,
        description="test fault: raise an internal error",
        sites=frozenset({"where_result"}),
        trigger=always,
    )


def _replay_adapter(faults=None) -> tuple[MiniDBAdapter, EvalCache]:
    """A fresh adapter with the statement memo, as ddmin attaches it."""
    adapter = MiniDBAdapter(Engine(faults=faults))
    cache = EvalCache()
    adapter.attach_replay_memo(cache)
    return adapter, cache


def _seed_table(adapter) -> None:
    adapter.execute("CREATE TABLE t (a INT, b INT)")
    adapter.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")


# ---------------------------------------------------------------------------
# State versioning and invalidation
# ---------------------------------------------------------------------------


def test_state_token_advances_on_every_write_kind():
    adapter, _cache = _replay_adapter()
    tokens = [adapter._state_token]
    for sql in (
        "CREATE TABLE t (a INT)",
        "INSERT INTO t VALUES (1)",
        "UPDATE t SET a = 2",
        "DELETE FROM t WHERE a = 2",
        "CREATE INDEX ix ON t (a)",
        "CREATE VIEW v AS SELECT a FROM t",
        "DROP VIEW v",
    ):
        adapter.execute(sql)
        tokens.append(adapter._state_token)
        adapter.execute("SELECT * FROM t")
        assert adapter._state_token == tokens[-1]  # reads never advance
    assert len(set(tokens)) == len(tokens)


def test_failed_write_still_advances_state_token():
    adapter, _cache = _replay_adapter()
    adapter.execute("CREATE TABLE t (a INT)")
    before = adapter._state_token
    with pytest.raises(CatalogError):
        adapter.execute("INSERT INTO missing VALUES (1)")
    assert adapter._state_token != before  # conservative advance


def test_statement_cache_hit_and_dml_invalidation():
    adapter, cache = _replay_adapter()
    _seed_table(adapter)
    first = adapter.execute("SELECT a FROM t WHERE b >= 20").rows
    again = adapter.execute("SELECT a FROM t WHERE b >= 20").rows
    assert cache.stats.stmt_hits == 1
    assert again == first
    # A write moves the state token: the same text re-executes fresh.
    adapter.execute("INSERT INTO t VALUES (4, 40)")
    updated = adapter.execute("SELECT a FROM t WHERE b >= 20").rows
    assert cache.stats.stmt_hits == 1  # no false hit
    assert len(updated) == len(first) + 1


def test_state_token_chain_is_content_sensitive():
    token = advance_state_token(INITIAL_STATE_TOKEN, "CREATE TABLE t (a INT)")
    same = advance_state_token(INITIAL_STATE_TOKEN, "CREATE TABLE t (a INT)")
    other = advance_state_token(INITIAL_STATE_TOKEN, "CREATE TABLE t (b INT)")
    assert token == same
    assert token != other
    assert token != INITIAL_STATE_TOKEN


def test_divergent_histories_never_share_results():
    """Two adapters on one cache whose write histories differ by
    content (not length) must not alias each other's SELECTs."""
    cache = EvalCache()
    rows = {}
    for value in (1, 2):
        adapter = MiniDBAdapter(Engine())
        adapter.attach_replay_memo(cache)
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.execute(f"INSERT INTO t VALUES ({value})")
        rows[value] = adapter.execute("SELECT a FROM t").rows
    assert rows[1] == [(1,)]
    assert rows[2] == [(2,)]


def test_identical_histories_share_results_across_adapters():
    """The ddmin/replay pattern: fresh engines replaying the same
    program prefix reuse each other's statement results."""
    cache = EvalCache()
    for _ in range(2):
        adapter = MiniDBAdapter(Engine())
        adapter.attach_replay_memo(cache)
        _seed_table(adapter)
        assert adapter.execute("SELECT COUNT(*) FROM t").rows == [(3,)]
    assert cache.stats.stmt_hits == 1


# ---------------------------------------------------------------------------
# Side-effect replay
# ---------------------------------------------------------------------------


def test_cache_hit_replays_fired_faults():
    adapter, cache = _replay_adapter(faults=[_invert_fault()])
    _seed_table(adapter)
    sql = "SELECT a FROM t WHERE a = 1"
    first = adapter.execute(sql)
    fired_first = adapter.fired_fault_ids()
    assert fired_first  # the fault fired on the miss
    again = adapter.execute(sql)
    assert cache.stats.stmt_hits == 1
    assert again.rows == first.rows
    assert adapter.fired_fault_ids() == fired_first


def test_cache_hit_replays_recorded_sql_errors():
    adapter, cache = _replay_adapter()
    _seed_table(adapter)
    sql = "SELECT missing FROM t"
    with pytest.raises(CatalogError) as first:
        adapter.execute(sql)
    with pytest.raises(CatalogError) as second:
        adapter.execute(sql)
    assert cache.stats.stmt_hits == 1
    assert str(second.value) == str(first.value)


def test_cache_hit_replays_internal_errors_with_attribution():
    adapter, cache = _replay_adapter(faults=[_error_fault()])
    _seed_table(adapter)
    sql = "SELECT a FROM t WHERE a = 1"
    with pytest.raises(InternalError) as first:
        adapter.execute(sql)
    fired = adapter.fired_fault_ids()
    assert "test.internal" in fired
    with pytest.raises(InternalError) as second:
        adapter.execute(sql)
    assert cache.stats.stmt_hits == 1
    assert str(second.value) == str(first.value)
    assert adapter.fired_fault_ids() == fired


def test_recording_does_not_disturb_cumulative_coverage():
    adapter, _cache = _replay_adapter()
    uncached = MiniDBAdapter(Engine())
    for sql in (
        "CREATE TABLE t (a INT)",
        "INSERT INTO t VALUES (1), (2)",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 2",
        "SELECT missing FROM t",  # the error path records too
        "SELECT COUNT(*) FROM t",
    ):
        for a in (adapter, uncached):
            try:
                a.execute(sql)
            except CatalogError:
                pass
    assert adapter.engine.coverage.hits == uncached.engine.coverage.hits


# ---------------------------------------------------------------------------
# Parse memo and priming
# ---------------------------------------------------------------------------


def test_parse_memo_counts_and_returns_same_ast():
    cache = EvalCache()
    sql = "SELECT 1 + 2"
    first = cache.parse(sql)
    second = cache.parse(sql)
    assert first is second
    assert cache.stats.parse_misses == 1
    assert cache.stats.parse_hits == 1


def test_prime_parse_skips_the_parser():
    cache = EvalCache()
    sql = "SELECT (1 + 2) AS phi"
    ast = parser_normal(parse_statement(sql))
    cache.prime_parse(sql, ast)
    assert cache.parse(sql) is ast
    assert cache.stats.parse_misses == 0
    assert cache.stats.parse_hits == 1


def test_prime_parse_never_overwrites():
    cache = EvalCache()
    sql = "SELECT 1"
    parsed = cache.parse(sql)
    cache.prime_parse(sql, parse_statement(sql))
    assert cache.parse(sql) is parsed


def test_lru_bounds_are_enforced(monkeypatch):
    monkeypatch.setattr(cache_module, "MEMO_ENTRIES", 2)
    cache = EvalCache()
    for i in range(5):
        cache.parse(f"SELECT {i}")
    assert len(cache._parse) == 2
    from repro.perf.cache import CachedStatement

    for i in range(5):
        cache.store_statement(("tok", f"SELECT {i}"), CachedStatement())
    assert len(cache._stmt) == 2


def _reducing_fleet_cache_stats() -> dict:
    """Cache counters of the ``reducing-fleet-1w`` golden configuration
    (``tests/perf/test_signature_goldens.py``): a guided 1-worker fleet
    whose shard ddmin-reduces every new bug on its own cache."""
    config = FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=1,
        seed=5,
        n_tests=200,
        guidance="plan-coverage",
    )
    corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
    return run_fleet(config, corpus=corpus).merged.cache_stats


def test_memo_bound_keeps_the_reused_entries(monkeypatch):
    """The shipped bound loses no statement hit and under 5 % of the
    parse hits an unbounded cache gets on the traffic it was sized on."""
    shipped = _reducing_fleet_cache_stats()
    monkeypatch.setattr(cache_module, "MEMO_ENTRIES", 10**9)
    unbounded = _reducing_fleet_cache_stats()
    assert unbounded["stmt_hits"] > 0
    assert shipped["stmt_hits"] == unbounded["stmt_hits"]
    assert shipped["parse_hits"] >= 0.95 * unbounded["parse_hits"]


# ---------------------------------------------------------------------------
# Which job consults the statement memo
# ---------------------------------------------------------------------------


@pytest.fixture
def stmt_lookups(monkeypatch):
    """Statement-memo lookups by ``(made by ddmin?, hit?)``."""
    lookups: Counter = Counter()
    reducing = [0]
    lookup = EvalCache.lookup_statement
    reduce = ReplayReducer.reduce

    def counted(cache, key):
        entry = lookup(cache, key)
        lookups[bool(reducing[0]), entry is not None] += 1
        return entry

    def reducer(self, *args, **kwargs):
        reducing[0] += 1
        try:
            return reduce(self, *args, **kwargs)
        finally:
            reducing[0] -= 1

    monkeypatch.setattr(EvalCache, "lookup_statement", counted)
    monkeypatch.setattr(ReplayReducer, "reduce", reducer)
    return lookups


def test_only_ddmin_consults_the_statement_memo(stmt_lookups, capsys):
    """Campaigns run almost every SELECT once, so they attach the parse
    memo alone; ddmin's candidates replay statement prefixes, so they
    attach the statement memo too."""
    assert cli_main(["hunt", "--buggy", "--tests", "200", "--seed", "5"]) == 0
    assert cli_main(
        ["diff", "--backends", "minidb,sqlite3", "--buggy", "--tests", "150",
         "--seed", "3"]
    ) == 0
    assert "eval cache:" in capsys.readouterr().out
    assert not stmt_lookups

    config = FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=1,
        seed=5,
        n_tests=200,
        guidance="plan-coverage",
    )
    corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
    result = run_fleet(config, corpus=corpus)
    replay_clusters(result.clusters)
    assert stmt_lookups[True, True] > 0
    assert stmt_lookups[True, True] == result.merged.cache_stats["stmt_hits"]
    assert stmt_lookups[False, True] == stmt_lookups[False, False] == 0


# ---------------------------------------------------------------------------
# Campaign stats plumbing
# ---------------------------------------------------------------------------


def test_campaign_stats_merge_sums_cache_counters_and_signature_excludes_them():
    a = CampaignStats(oracle="coddtest", cache_stats={"parse_hits": 3, "stmt_misses": 1})
    b = CampaignStats(oracle="coddtest", cache_stats={"parse_hits": 4, "stmt_hits": 2})
    merged = CampaignStats.merge([a, b])
    assert merged.cache_stats == {"parse_hits": 7, "stmt_misses": 1, "stmt_hits": 2}
    assert merged.cache_hits == 9
    assert merged.cache_misses == 1
    assert "cache_stats" not in merged.signature()
    bare = CampaignStats.merge([CampaignStats(oracle="coddtest")])
    assert merged.signature() == bare.signature()
