"""Bit-identity of cached campaigns (the repro.perf contract).

The evaluation cache must be observationally invisible: for any seed,
any oracle, and any interleaving of cached and uncached execution, a
campaign produces the identical ``CampaignStats.signature()`` and the
identical ``TestReport`` sequence.  These tests pin that contract at
the Python level; the perf-smoke CI job re-gates it end to end
(multi-worker fleets, real sqlite3 reference) on every push.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import CoddTestOracle, MiniDBAdapter, make_engine
from repro.baselines import DQEOracle, EETOracle, NoRECOracle, TLPOracle
from repro.fleet import FleetConfig, run_fleet
from repro.minidb.parser import parse_statement
from repro.perf import EvalCache, parser_normal
from repro.runner.campaign import Campaign


def _run(oracle_factory, seed, cache=None, buggy=True, tests=120):
    oracle = oracle_factory()
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=buggy))
    campaign = Campaign(oracle, adapter, seed=seed, cache=cache)
    return campaign.run(n_tests=tests)


ORACLES = {
    "coddtest": lambda: CoddTestOracle(max_depth=4),
    "coddtest-expr": lambda: CoddTestOracle(max_depth=5, expression_only=True),
    "coddtest-subq": lambda: CoddTestOracle(max_depth=3, subquery_only=True),
    "norec": NoRECOracle,
    "tlp": TLPOracle,
    "dqe": DQEOracle,
    "eet": EETOracle,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_cache_on_matches_cache_off(name):
    off = _run(ORACLES[name], seed=5)
    on = _run(ORACLES[name], seed=5, cache=EvalCache())
    assert on.signature() == off.signature()
    assert on.reports == off.reports


def test_differential_fleet_cache_on_matches_cache_off():
    def config(use_cache):
        return FleetConfig(
            oracle="differential",
            backend_pair=("minidb", "sqlite3"),
            buggy=True,
            workers=1,
            seed=3,
            n_tests=80,
            use_cache=use_cache,
        )

    on = run_fleet(config(True)).merged
    off = run_fleet(config(False)).merged
    assert on.signature() == off.signature()


def test_guided_fleet_cache_on_matches_cache_off():
    def config(use_cache):
        return FleetConfig(
            oracle="coddtest",
            buggy=True,
            workers=1,
            seed=7,
            n_tests=130,
            guidance="plan-coverage",
            use_cache=use_cache,
        )

    on = run_fleet(config(True))
    off = run_fleet(config(False))
    assert on.merged.signature() == off.merged.signature()
    assert on.arm_schedules == off.arm_schedules


# ---------------------------------------------------------------------------
# Interleaving property: toggling the cache mid-campaign changes nothing
# ---------------------------------------------------------------------------


def _run_toggled(seed: int, schedule: "list[bool]", tests: int = 100):
    oracle = CoddTestOracle(max_depth=4)
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    cache = EvalCache()
    step = {"i": 0}

    def set_cached(enabled: bool) -> None:
        if enabled:
            adapter.attach_eval_cache(cache)
        else:
            adapter._cache = None

    def toggle(_stats) -> None:
        step["i"] += 1
        set_cached(schedule[step["i"] % len(schedule)])

    campaign = Campaign(
        oracle, adapter, seed=seed, tests_per_state=10, on_progress=toggle
    )
    set_cached(schedule[0])
    return campaign.run(n_tests=tests)


@settings(max_examples=8, deadline=None)
@given(
    schedule=st.lists(st.booleans(), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=3),
)
def test_any_interleaving_yields_identical_report_sequences(schedule, seed):
    baseline = _run_toggled(seed, [False])  # never cached
    toggled = _run_toggled(seed, schedule)
    assert toggled.signature() == baseline.signature()
    assert toggled.reports == baseline.reports


# ---------------------------------------------------------------------------
# The priming property: parser_normal == parse . to_sql
# ---------------------------------------------------------------------------


class _PrimeCheckingAdapter(MiniDBAdapter):
    """Asserts, for every AST an oracle or the state generator renders,
    that its parser-normal form is exactly what parsing the rendered SQL
    yields -- the property that makes priming the parse memo
    behaviour-preserving."""

    checked: list[str] = []

    def prime_parse(self, sql: str, ast) -> None:
        normal = parser_normal(ast)
        parsed = parse_statement(sql)
        assert normal == parsed, sql
        type(self).checked.append(sql)
        super().prime_parse(sql, ast)


#: The statement shapes of the relation folder's original and folded
#: relations (paper Section 3.4), and the state generator's INSERT.
_PRIMED_SHAPES = {
    "insert_select": r"INSERT INTO codd_o SELECT ",
    "derived": r"SELECT \* FROM \(SELECT ",
    "cte": r"WITH codd_rel\([^)]*\) AS \(SELECT ",
    "insert_values": r"INSERT INTO codd_f VALUES ",
    "derived_values": r"SELECT \* FROM \(VALUES ",
    "cte_values": r"WITH codd_rel\([^)]*\) AS \(VALUES ",
    "state insert": r"INSERT INTO t\d+ VALUES ",
}


@pytest.mark.parametrize(
    "oracle_factory",
    [
        lambda: CoddTestOracle(max_depth=5),
        lambda: CoddTestOracle(max_depth=5, expression_only=True),
        lambda: CoddTestOracle(max_depth=3, subquery_only=True),
        lambda: CoddTestOracle(max_depth=5, relation_mode_prob=1.0),
        NoRECOracle,
        TLPOracle,
        DQEOracle,
        EETOracle,
    ],
    ids=[
        "coddtest",
        "coddtest-expr",
        "coddtest-subq",
        "coddtest-relation",
        "norec",
        "tlp",
        "dqe",
        "eet",
    ],
)
def test_parser_normal_matches_parse_roundtrip_on_oracle_streams(
    oracle_factory, monkeypatch
):
    from repro.core.relations import RelationFolder

    # Which original/folded relation kinds ran together.
    pairs: set[tuple[str, str]] = set()
    originals: list[str] = []
    run_original = RelationFolder._run_original
    run_folded = RelationFolder._run_folded

    def spy_original(self, kind, *args):
        originals.append(kind)
        return run_original(self, kind, *args)

    def spy_folded(self, kind, *args):
        pairs.add((originals[-1], kind))
        return run_folded(self, kind, *args)

    monkeypatch.setattr(RelationFolder, "_run_original", spy_original)
    monkeypatch.setattr(RelationFolder, "_run_folded", spy_folded)
    _PrimeCheckingAdapter.checked = []
    adapter = _PrimeCheckingAdapter(
        make_engine("sqlite", with_catalog_faults=True)
    )
    adapter.attach_eval_cache(EvalCache())
    oracle = oracle_factory()
    campaign = Campaign(oracle, adapter, seed=2)
    campaign.run(n_tests=120)
    checked = _PrimeCheckingAdapter.checked
    assert len(checked) > 100
    shapes = {
        shape
        for shape, pattern in _PRIMED_SHAPES.items()
        if any(re.match(pattern, sql) for sql in checked)
    }
    if getattr(oracle, "relation_mode_prob", 0.0) == 1.0:
        assert pairs == {
            (o, f)
            for o in RelationFolder.ORIGINAL_KINDS
            for f in RelationFolder.FOLDED_KINDS
        }
        assert shapes == set(_PRIMED_SHAPES)
    else:
        assert "state insert" in shapes
