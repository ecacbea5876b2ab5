"""Fleet orchestration: serial equivalence, determinism, merging,
early stop, corpus integration, and end-to-end resume."""

import pytest

from repro import (
    BugCorpus,
    CoddTestOracle,
    FleetConfig,
    MiniDBAdapter,
    make_engine,
    make_replay_reducer,
    run_campaign,
    run_fleet,
)
from repro.errors import (
    EngineCrash,
    EngineHang,
    InternalError,
    SqlError,
)
from repro.fleet import build_shards


def fleet_config(**kwargs) -> FleetConfig:
    defaults = dict(
        oracle="coddtest", dialect="sqlite", buggy=True, n_tests=150, seed=5
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


class TestConfigValidation:
    def test_requires_budget(self):
        with pytest.raises(ValueError):
            FleetConfig(n_tests=None, seconds=None)

    def test_rejects_unknown_oracle(self):
        with pytest.raises(ValueError):
            FleetConfig(oracle="nope", n_tests=10)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0, n_tests=10)

    @pytest.mark.parametrize(
        "budget",
        [
            dict(n_tests=0),
            dict(n_tests=-5),
            dict(seconds=0.0),
            dict(seconds=-1.0),
            dict(seconds=float("nan")),
            dict(n_tests=0, seconds=5.0),
            dict(n_tests=10, seconds=-1.0),
            # A met report cap runs nothing; an empty batch never ends.
            dict(n_tests=10, max_reports=0),
            dict(n_tests=10, tests_per_state=0),
        ],
    )
    def test_rejects_non_positive_budget(self, budget):
        with pytest.raises(ValueError, match="must be"):
            FleetConfig(**budget)

    def test_more_workers_than_tests_is_valid(self):
        # Some shards get a 0-test quota; the fleet budget is positive.
        shards = build_shards(fleet_config(workers=4, n_tests=2))
        assert sorted(s.n_tests for s in shards) == [0, 0, 1, 1]


class TestBuildShards:
    def test_single_worker_keeps_seed_and_budget(self):
        shards = build_shards(fleet_config(workers=1, n_tests=100, seed=9))
        assert len(shards) == 1
        assert shards[0].seed == 9
        assert shards[0].n_tests == 100

    def test_budget_split_sums(self):
        shards = build_shards(fleet_config(workers=3, n_tests=100))
        assert sum(s.n_tests for s in shards) == 100


class TestSerialEquivalence:
    def test_one_worker_fleet_matches_serial_campaign(self):
        adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
        serial = run_campaign(
            CoddTestOracle(), adapter, n_tests=150, seed=5
        )
        fleet = run_fleet(fleet_config(workers=1))
        assert fleet.merged.signature() == serial.signature()


class TestMultiWorker:
    def test_same_seed_same_workers_is_deterministic(self):
        a = run_fleet(fleet_config(workers=2, n_tests=200))
        b = run_fleet(fleet_config(workers=2, n_tests=200))
        assert a.merged.signature() == b.merged.signature()

    def test_merged_counters_are_shard_sums(self):
        result = run_fleet(fleet_config(workers=2, n_tests=200))
        assert result.merged.tests == 200
        assert result.merged.tests == sum(s.tests for s in result.shards)
        assert result.merged.queries_ok == sum(
            s.queries_ok for s in result.shards
        )
        union = set()
        for shard in result.shards:
            union |= shard.unique_plans
        assert result.merged.unique_plans == union

    def test_fleet_wide_max_reports_bounds_merge(self):
        result = run_fleet(
            fleet_config(workers=2, n_tests=4000, max_reports=6)
        )
        assert len(result.merged.reports) <= 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_past_the_cap_are_what_the_corpus_took_beyond_it(
        self, workers
    ):
        # However the shards' reports interleave with the stop, the
        # merged list plus the reports past the cap is every report the
        # corpus took: new entries and duplicates alike.
        result = run_fleet(
            fleet_config(workers=workers, n_tests=4000, max_reports=6),
            corpus=BugCorpus(),
        )
        assert len(result.merged.reports) == 6
        absorbed = len(result.new_fingerprints) + result.duplicate_reports
        assert 6 + result.reports_past_cap == absorbed
        if workers == 1:
            # One shard stops at the cap exactly.
            assert result.reports_past_cap == 0

    def test_worker_failure_streams_error_not_hang(self):
        # A spec whose oracle cannot even be constructed must come back
        # over the queue as an error message, not kill the pool.
        import multiprocessing

        from repro.fleet import ShardSpec
        from repro.fleet import orchestrator as orch

        ctx = multiprocessing.get_context()
        inbox, orchestrator_end = ctx.Pipe(duplex=False)
        q = ctx.Queue()
        ev = ctx.Event()
        config = FleetConfig(
            workers=2,
            n_tests=20,
            oracle="coddtest",
            oracle_kwargs={"no_such_kwarg": True},
            dialect="sqlite",
        )
        spec = ShardSpec(
            config=config,
            shard_index=0,
            seed=1,
            n_tests=10,
            seconds=None,
            max_reports=config.max_reports,
        )
        # The worker runs the spec, then the None closes it.
        orchestrator_end.send(spec)
        orchestrator_end.send(None)
        orch._worker_main(inbox, q, ev)
        kind, idx, payload = q.get(timeout=5)
        assert kind == "error"
        assert idx == 0
        assert "no_such_kwarg" in payload


class TestCorpusIntegration:
    def test_dedup_across_shards_and_runs(self):
        config = fleet_config(workers=2, n_tests=300)
        corpus = BugCorpus()
        first = run_fleet(config, corpus=corpus)
        assert len(first.merged.reports) > 0
        unique_after_first = len(corpus)
        assert unique_after_first <= len(first.merged.reports)
        assert len(first.new_fingerprints) == unique_after_first

        # Same fleet again: every report is already fingerprinted.
        second = run_fleet(config, corpus=corpus)
        assert second.new_fingerprints == []
        assert second.duplicate_reports == len(second.merged.reports)
        assert len(corpus) == unique_after_first  # monotonic, no growth

    def test_checkpoint_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        config = fleet_config(workers=2, n_tests=300)

        corpus = BugCorpus.open(path)
        first = run_fleet(config, corpus=corpus)
        corpus.save()
        assert len(first.new_fingerprints) > 0

        resumed = BugCorpus.open(path)
        assert set(resumed.entries) == set(corpus.entries)
        second = run_fleet(config, corpus=resumed)
        assert second.new_fingerprints == []
        resumed.save()
        assert set(BugCorpus.open(path).entries) == set(corpus.entries)

    def test_replay_reducer_minimizes_first_seen(self):
        config = fleet_config(workers=1, n_tests=300)
        corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
        run_fleet(config, corpus=corpus)
        assert len(corpus) > 0
        reduced = [
            e for e in corpus.entries.values() if e.reduced_statements
        ]
        assert reduced, "expected at least one reducible bug"
        for entry in reduced:
            assert len(entry.reduced_statements) <= len(entry.statements)

    def test_reducer_unavailable_for_real_dbms(self):
        config = FleetConfig(adapter="sqlite3", n_tests=10)
        assert make_replay_reducer(config) is None


class TestShardReduction:
    """Shards reduce first-seen bugs on their own cache."""

    def test_each_distinct_candidate_replays_once(self, monkeypatch):
        import repro.fleet.orchestrator as orchestrator

        config = fleet_config(workers=1, n_tests=300)
        report = next(
            r for r in run_fleet(config).merged.reports if r.fired_faults
        )
        builds = 0
        init = MiniDBAdapter.__init__

        def counting_init(adapter, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(adapter, *args, **kwargs)

        candidates = set()
        reduce_statements = orchestrator.reduce_statements

        def recording_reduce(statements, still_fails):
            def check(candidate):
                candidates.add(tuple(candidate))
                return still_fails(candidate)

            return reduce_statements(statements, check)

        monkeypatch.setattr(MiniDBAdapter, "__init__", counting_init)
        monkeypatch.setattr(orchestrator, "reduce_statements", recording_reduce)
        assert make_replay_reducer(config)(report)
        assert builds == len(candidates)

    def test_known_fingerprints_are_not_reduced_again(self):
        config = fleet_config(workers=2, n_tests=200)
        corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
        first = run_fleet(config, corpus=corpus)
        rerun = run_fleet(config, corpus=corpus)
        corpus.reduce_fn = None
        unreduced = run_fleet(config, corpus=corpus)
        assert first.new_fingerprints and not rerun.new_fingerprints
        # Reductions count in the shard's cache stats, so equal stats
        # mean the rerun reduced nothing.
        assert rerun.merged.cache_stats == unreduced.merged.cache_stats
        assert first.merged.cache_stats != unreduced.merged.cache_stats

    def test_candidate_failing_as_another_kind_does_not_reproduce(
        self, monkeypatch
    ):
        # A crash witness must crash again: a candidate that hangs, even
        # by the recorded fault, is a different bug.
        import repro.fleet.orchestrator as orchestrator
        from repro.oracles_base import TestReport
        from repro.runner.reducer import replay_witness

        class HangingAdapter:
            def execute(self, sql):
                raise EngineHang("injected hang: f")

            def fired_fault_ids(self):
                return frozenset({"f"})

            def attach_replay_memo(self, cache):
                pass

        monkeypatch.setattr(
            orchestrator, "build_backend", lambda *a, **k: HangingAdapter()
        )
        report = TestReport(
            oracle="coddtest",
            kind="crash",
            statements=["CREATE TABLE t0 (c0 INT)", "SELECT c0 FROM t0"],
            description="injected crash: f",
            fired_faults=frozenset({"f"}),
        )
        assert orchestrator.ReplayReducer("minidb", "sqlite", True)(
            report
        ) is None
        assert replay_witness(
            HangingAdapter(), report.statements, "crash", {"f"}, pair=False
        ) == (False, "engine failure of a different class: injected hang: f")

    def test_reducing_fleet_cache_stats_are_deterministic(self):
        config = fleet_config(
            workers=2, n_tests=200, guidance="plan-coverage"
        )
        runs = [
            run_fleet(
                config, corpus=BugCorpus(reduce_fn=make_replay_reducer(config))
            )
            for _ in range(2)
        ]
        assert [s.cache_stats for s in runs[0].shards] == [
            s.cache_stats for s in runs[1].shards
        ]
        assert runs[0].merged.cache_stats == runs[1].merged.cache_stats

    @pytest.mark.parametrize(
        "reduce_fn",
        [
            lambda report: None,
            make_replay_reducer(fleet_config(buggy=False)),
            make_replay_reducer(fleet_config(dialect="mysql")),
        ],
        ids=["plain-function", "other-engine", "other-dialect"],
    )
    def test_rejects_a_reducer_that_is_not_the_fleets(self, reduce_fn):
        with pytest.raises(ValueError, match="make_replay_reducer"):
            run_fleet(
                fleet_config(workers=1, n_tests=10),
                corpus=BugCorpus(reduce_fn=reduce_fn),
            )


def _report(i):
    from repro.oracles_base import TestReport

    return TestReport(
        oracle="coddtest",
        kind="logic",
        statements=[f"SELECT {i}"],
        description="d",
    )


def _collector(corpus, workers=1):
    from repro.fleet import FleetTelemetry
    from repro.fleet.orchestrator import _Collector

    config = fleet_config(workers=workers)
    return _Collector(config, corpus, FleetTelemetry().open(config))


def _progress(shard, reports, posted, upto):
    """The progress message a shard posts after filing reports[:upto],
    having posted reports[:posted] before."""
    from repro.fleet.orchestrator import _progress_payload
    from repro.runner.campaign import CampaignStats

    stats = CampaignStats(oracle="coddtest", reports=reports[:upto])
    return (
        "progress",
        shard,
        {**_progress_payload(stats), "new_reports": reports[posted:upto]},
    )


class TestCorpusSink:
    """The collector is the fleet's one corpus sink."""

    def test_streams_reports_without_double_counting(self):
        # Each progress message carries only the reports found since the
        # shard's previous one, and the shard posts once more when its
        # campaign returns -- this is what makes an interrupted fleet
        # keep its bugs.
        from repro.runner.campaign import CampaignStats

        corpus = BugCorpus()
        collector = _collector(corpus)
        reports = [_report(i) for i in range(5)]
        collector.post(_progress(0, reports, 0, 2))  # first progress message
        collector.post(_progress(0, reports, 2, 4))  # second progress message
        collector.post(_progress(0, reports, 4, 5))  # only reports[4] is new
        final = CampaignStats(oracle="coddtest", reports=reports)
        collector.post(("result", 0, {"stats": final}))
        collector.end_round()
        assert len(corpus) == 5
        assert collector.duplicates == 0
        assert len(collector.new_fingerprints) == 5

    def test_no_corpus_is_a_noop(self):
        collector = _collector(None)
        collector.post(_progress(0, [], 0, 0))
        collector.end_round()
        assert collector.snapshot().unique_reports is None
        assert collector.new_fingerprints == []

    def test_corpus_order_does_not_depend_on_interleaving(self):
        # Two shards' posts, in two arrival orders: the round's new
        # entries end up in shard order, then in each shard's own
        # report order, whatever the order of arrival.
        ours = [_report(i) for i in range(3)]
        theirs = [_report(i) for i in range(3, 6)]

        def messages():
            return [
                _progress(0, ours, 0, 2),
                _progress(0, ours, 2, 3),
                _progress(1, theirs, 0, 1),
                _progress(1, theirs, 1, 3),
            ]

        seen = []
        for order in ((0, 1, 2, 3), (2, 0, 3, 1)):
            corpus = BugCorpus()
            collector = _collector(corpus, workers=2)
            batch = messages()
            for index in order:
                collector.post(batch[index])
            collector.end_round()
            entries = [entry.to_dict() for entry in corpus.entries.values()]
            seen.append((entries, collector.new_fingerprints))
        assert seen[0] == seen[1]
        shards = [entry["first_seen_shard"] for entry in seen[0][0]]
        assert shards == [0, 0, 0, 1, 1, 1]


class TestReportsAreReplayable:
    def test_report_statements_rebuild_their_state(self):
        # The corpus persists reports as standalone programs: replaying
        # the statement list on a fresh engine must not hit missing
        # tables (ground-truth faults may legitimately fire).
        result = run_fleet(fleet_config(workers=1, n_tests=300))
        assert result.merged.reports
        for report in result.merged.reports[:5]:
            adapter = MiniDBAdapter(
                make_engine("sqlite", with_catalog_faults=True)
            )
            for sql in report.statements:
                try:
                    adapter.execute(sql)
                except (InternalError, EngineCrash, EngineHang):
                    break  # the injected bug fired: expected
                except SqlError as exc:  # pragma: no cover - failure path
                    pytest.fail(f"report not self-contained: {sql!r}: {exc}")
