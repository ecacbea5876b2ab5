"""Campaign runner, detection measurement, and reducer tests."""

import pytest

from repro import (
    CoddTestOracle,
    MiniDBAdapter,
    NoRECOracle,
    make_engine,
    run_campaign,
)
from repro.dialects.catalog import FAULTS_BY_ID
from repro.runner import detects_fault, reduce_statements
from repro.runner.campaign import Campaign


class TestCampaign:
    def test_runs_exact_test_count(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        stats = run_campaign(CoddTestOracle(), adapter, n_tests=60, seed=0)
        assert stats.tests == 60
        assert stats.states >= 1

    def test_seconds_budget_terminates(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        stats = run_campaign(CoddTestOracle(), adapter, seconds=1.0, seed=0)
        assert stats.wall_seconds >= 1.0
        assert stats.tests > 0

    def test_requires_some_budget(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        campaign = Campaign(CoddTestOracle(), adapter)
        with pytest.raises(ValueError):
            campaign.run()

    def test_rejects_empty_batch_per_state(self):
        # Only constructs: a campaign that accepted 0 would loop forever.
        adapter = MiniDBAdapter(make_engine("sqlite"))
        with pytest.raises(ValueError, match="tests_per_state"):
            Campaign(CoddTestOracle(), adapter, tests_per_state=0)

    def test_collects_plans_and_coverage(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        stats = run_campaign(CoddTestOracle(), adapter, n_tests=100, seed=0)
        assert len(stats.unique_plans) > 5
        assert 0.2 < stats.branch_coverage < 1.0

    def test_max_reports_bounds_runaway_campaigns(self):
        fault = FAULTS_BY_ID["cockroach_index_cmp_where"]
        adapter = MiniDBAdapter(make_engine("cockroachdb", faults=[fault]))
        stats = run_campaign(
            CoddTestOracle(), adapter, n_tests=100000, seed=0, max_reports=10
        )
        assert len(stats.reports) <= 11

    def test_bug_kind_counters(self):
        fault = FAULTS_BY_ID["tidb_ie_some_quantifier"]
        adapter = MiniDBAdapter(make_engine("tidb", faults=[fault]))
        stats = run_campaign(CoddTestOracle(), adapter, n_tests=400, seed=1)
        if stats.reports:
            assert stats.bug_reports_by_kind.get("internal error", 0) >= 1

    def test_reports_are_self_contained_programs(self):
        # Bug reports prepend the state-building DDL/DML, so the first
        # statement of every report creates rather than queries.
        fault = FAULTS_BY_ID["sqlite_view_join_where"]
        adapter = MiniDBAdapter(make_engine("sqlite", faults=[fault]))
        stats = run_campaign(CoddTestOracle(), adapter, n_tests=400, seed=5)
        assert stats.reports
        for report in stats.reports:
            assert report.statements[0].upper().startswith("CREATE TABLE")

    def test_state_generation_failure_is_bounded(self):
        from repro.adapters.base import EngineAdapter, ExecResult, SchemaInfo
        from repro.errors import ReproError, SqlError

        class BrokenAdapter(EngineAdapter):
            name = "broken"

            def execute(self, sql):
                raise SqlError("nothing works")

            def schema(self):
                return SchemaInfo()

            def reset(self):
                pass

        campaign = Campaign(
            CoddTestOracle(), BrokenAdapter(), max_state_failures=25
        )
        with pytest.raises(ReproError, match="25 times in a row"):
            campaign.run(n_tests=10)

    def test_external_stop_hook_ends_campaign(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        calls = {"n": 0}

        def should_stop():
            calls["n"] += 1
            return calls["n"] > 3

        campaign = Campaign(
            CoddTestOracle(), adapter, should_stop=should_stop
        )
        stats = campaign.run(n_tests=100000)
        assert stats.tests < 100000

    def test_progress_hook_sees_live_stats(self):
        adapter = MiniDBAdapter(make_engine("sqlite"))
        seen = []
        campaign = Campaign(
            CoddTestOracle(), adapter, on_progress=lambda s: seen.append(s.tests)
        )
        campaign.run(n_tests=60)
        assert seen and seen == sorted(seen)


class TestCampaignStatsMerge:
    def _stats(self, **kwargs):
        from repro.runner.campaign import CampaignStats

        defaults = dict(oracle="coddtest")
        defaults.update(kwargs)
        return CampaignStats(**defaults)

    def test_counters_sum_and_plans_union(self):
        from repro.oracles_base import TestReport

        a = self._stats(
            tests=10,
            queries_ok=30,
            unique_plans={"p1", "p2"},
            branch_coverage=0.5,
            wall_seconds=2.0,
        )
        b = self._stats(
            tests=5,
            queries_ok=10,
            unique_plans={"p2", "p3"},
            branch_coverage=0.7,
            wall_seconds=3.0,
        )
        from repro.runner.campaign import CampaignStats

        merged = CampaignStats.merge([a, b])
        assert merged.tests == 15
        assert merged.queries_ok == 40
        assert merged.unique_plans == {"p1", "p2", "p3"}
        assert merged.branch_coverage == 0.7  # max, not sum
        assert merged.wall_seconds == 3.0  # concurrent shards: max
        assert merged.qpt == pytest.approx(40 / 15)  # recomputed

    def test_merge_respects_max_reports(self):
        from repro.oracles_base import TestReport
        from repro.runner.campaign import CampaignStats

        def report(i):
            return TestReport(
                oracle="coddtest",
                kind="logic",
                statements=[f"SELECT {i}"],
                description="d",
            )

        a = self._stats(reports=[report(i) for i in range(4)])
        b = self._stats(reports=[report(i) for i in range(4, 8)])
        merged = CampaignStats.merge([a, b], max_reports=5)
        assert len(merged.reports) == 5
        # Shard order preserved: a's reports come first.
        assert merged.reports[0].statements == ["SELECT 0"]

    def test_mixed_oracles_are_labelled(self):
        from repro.runner.campaign import CampaignStats

        merged = CampaignStats.merge(
            [self._stats(oracle="coddtest"), self._stats(oracle="norec")]
        )
        assert merged.oracle == "mixed"

    def test_seconds_budget_with_only_skips_terminates(self):
        # A campaign whose every test is skipped must still honour the
        # wall-clock budget (skips never advance stats.tests).
        import time

        from repro.oracles_base import Oracle

        class SkipOracle(Oracle):
            name = "skip"

            def check_once(self):
                from repro.oracles_base import OracleSkip

                raise OracleSkip()

        adapter = MiniDBAdapter(make_engine("sqlite"))
        campaign = Campaign(SkipOracle(), adapter)
        start = time.perf_counter()
        stats = campaign.run(seconds=0.5)
        elapsed = time.perf_counter() - start
        assert stats.tests == 0
        assert stats.skipped > 0
        assert elapsed < 5.0


class TestDetectsFault:
    def test_coddtest_detects_its_fault(self):
        fault = FAULTS_BY_ID["sqlite_view_join_where"]
        assert detects_fault(lambda: CoddTestOracle(), fault, n_tests=400, seed=5)

    def test_norec_misses_subquery_fault(self):
        fault = FAULTS_BY_ID["sqlite_agg_subquery_indexed"]
        assert not detects_fault(
            lambda: NoRECOracle(), fault, n_tests=300, seed=5, attempts=1
        )


class TestReduceStatements:
    def test_reduces_to_minimal_failing_subset(self):
        statements = [f"s{i}" for i in range(8)]

        def still_fails(subset):
            return "s3" in subset and "s6" in subset

        reduced = reduce_statements(statements, still_fails)
        assert set(reduced) == {"s3", "s6"}

    def test_single_statement_case(self):
        reduced = reduce_statements(["a", "b"], lambda s: "a" in s)
        assert reduced == ["a"]

    def test_requires_failing_input(self):
        with pytest.raises(AssertionError):
            reduce_statements(["a"], lambda s: False)

    def test_end_to_end_reduction_of_bug_case(self):
        """Reduce a real bug-inducing statement list from a campaign."""
        fault = FAULTS_BY_ID["sqlite_index_between_where"]

        def still_fails(statements):
            engine = make_engine("sqlite", faults=[fault])
            last_two = []
            from repro.errors import ReproError, SqlError

            for sql in statements:
                try:
                    result = engine.execute(sql)
                except (SqlError, ReproError):
                    return False
                upper = sql.lstrip().upper()
                if upper.startswith("SELECT"):
                    last_two.append(result.rows)
            if len(last_two) < 2:
                return False
            from repro.oracles_base import rows_equal

            return not rows_equal(last_two[-2], last_two[-1])

        # A hand-built failing case (original vs folded query).
        statements = [
            "CREATE TABLE t (c INT)",
            "CREATE INDEX ix ON t (c)",
            "INSERT INTO t VALUES (1), (2), (3)",
            "CREATE VIEW unused (x) AS SELECT 1",
            "SELECT COUNT(*) FROM t WHERE c BETWEEN 1 AND 2",
            "SELECT COUNT(*) FROM t WHERE 0",
        ]
        assert still_fails(statements)
        reduced = reduce_statements(statements, still_fails)
        assert "CREATE VIEW unused (x) AS SELECT 1" not in reduced
        assert len(reduced) <= 5
