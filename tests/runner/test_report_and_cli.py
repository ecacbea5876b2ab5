"""Report rendering and CLI tests."""

import os
import re

import pytest

from repro.cli import main as cli_main
from repro.guidance import CoverageMap
from repro.report import (
    render_detection_table,
    render_efficiency_table,
    render_fleet_table,
    render_maxdepth_series,
    render_table1,
)


class TestRenderTable1:
    def test_full_catalog_renders_paper_totals(self):
        from repro.dialects import FAULTS_BY_PROFILE

        found = {
            profile: {f.fault_id for f in faults}
            for profile, faults in FAULTS_BY_PROFILE.items()
        }
        text = render_table1(found)
        assert "SQLite" in text and "TiDB" in text
        # All 45 found -> the totals row equals paper Table 1.
        assert text.splitlines()[-1].split() == [
            "Total", "24", "14", "2", "5", "33", "12", "45",
        ]

    def test_partial_findings(self):
        text = render_table1({"sqlite": {"sqlite_join_on_exists"}})
        assert "SQLite" in text
        assert " 1" in text

    def test_unknown_ids_ignored(self):
        text = render_table1({"sqlite": {"not_a_fault"}})
        assert "Total" in text


class TestRenderOtherTables:
    def test_detection_table(self):
        text = render_detection_table(
            {
                "coddtest": {"a", "b", "c"},
                "norec": {"a"},
                "tlp": {"b"},
                "dqe": set(),
            }
        )
        assert "NOREC" in text
        assert "Only CODD" in text
        assert text.splitlines()[-1].endswith("3")

    def test_efficiency_table(self):
        rows = [
            {
                "oracle": "norec",
                "tests": 100,
                "queries_ok": 200,
                "queries_err": 1,
                "qpt": 2.0,
                "unique_plans": 42,
                "coverage": 0.63,
                "tests_per_second": 698.04,
                "shipped_tests_per_second": 1331.26,
            }
        ]
        text = render_efficiency_table(rows)
        assert "norec" in text and "63.00%" in text
        assert "uncached t/s" in text and "shipped t/s" in text
        assert text.splitlines()[-1].split()[-2:] == ["698.0", "1331.3"]

    def test_maxdepth_series(self):
        text = render_maxdepth_series(
            {
                1: {
                    "us_per_query": 10.0,
                    "tests": 100,
                    "unique_plans": 5,
                    "tests_per_second": 410.44,
                    "shipped_tests_per_second": 951.06,
                    "hit_rate": 0.9375,
                }
            }
        )
        assert "MaxDepth" in text and "10.0" in text
        assert "uncached t/s" in text and "shipped t/s" in text
        assert text.splitlines()[-1].split()[-3:] == ["410.4", "951.1", "93.8%"]

    def test_fleet_table(self):
        from repro.runner.campaign import CampaignStats

        shards = [
            CampaignStats(
                oracle="coddtest",
                tests=100,
                queries_ok=300,
                wall_seconds=2.0,
                unique_plans={"a"},
            ),
            CampaignStats(
                oracle="coddtest",
                tests=100,
                queries_ok=320,
                wall_seconds=2.0,
                unique_plans={"b"},
            ),
        ]
        merged = CampaignStats.merge(shards)
        text = render_fleet_table(shards, merged)
        assert "merged" in text
        assert text.count("\n") >= 4
        last = text.splitlines()[-1].split()
        assert last[0] == "merged" and last[1] == "200"


class TestCli:
    def test_hunt_buggy(self, capsys):
        rc = cli_main(
            ["hunt", "--dialect", "sqlite", "--buggy", "--tests", "120", "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coddtest on sqlite" in out or "tests" in out

    def test_hunt_clean_reports_nothing(self, capsys):
        rc = cli_main(["hunt", "--tests", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bug reports: 0" in out

    def test_compare(self, capsys):
        rc = cli_main(["compare", "--tests", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("coddtest", "norec", "tlp", "dqe", "eet"):
            assert name in out

    def test_sqlite3_subcommand(self, capsys):
        rc = cli_main(["sqlite3", "--tests", "30"])
        assert rc == 0
        assert "real sqlite3" in capsys.readouterr().out

    def test_sqlite3_subcommand_runs_the_serial_campaign(
        self, capsys, monkeypatch
    ):
        # `coddtest sqlite3` is a 1-worker fleet; it runs exactly the
        # campaign run_campaign runs on the real SQLite.
        import repro.cli
        from repro.adapters import Sqlite3Adapter
        from repro.core import CoddTestOracle
        from repro.runner import run_campaign

        results = []
        run_fleet = repro.cli.run_fleet

        def recorded(config, **kwargs):
            results.append(run_fleet(config, **kwargs))
            return results[-1]

        monkeypatch.setattr(repro.cli, "run_fleet", recorded)
        assert cli_main(["sqlite3", "--tests", "200", "--seed", "3"]) == 0
        serial = run_campaign(
            CoddTestOracle(relation_mode_prob=0.0),
            Sqlite3Adapter(),
            n_tests=200,
            seed=3,
        )
        [result] = results
        assert result.merged.signature() == serial.signature()
        assert f"{serial.tests} tests" in capsys.readouterr().out

    def test_oracle_selection(self, capsys):
        rc = cli_main(["hunt", "--oracle", "norec", "--tests", "40"])
        assert rc == 0
        assert "norec" in capsys.readouterr().out

    def test_diff_clean_run_exits_zero(self, capsys):
        rc = cli_main(
            ["diff", "--tests", "60", "--seed", "7", "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "differential minidb vs sqlite3" in out
        assert "divergences: 0 report(s)" in out

    def test_diff_buggy_run_reports_and_exits_zero(self, capsys, tmp_path):
        corpus = str(tmp_path / "div.jsonl")
        rc = cli_main(
            ["diff", "--tests", "300", "--seed", "7", "--buggy",
             "--corpus", corpus, "--quiet"]
        )
        assert rc == 0  # divergences are the *goal* with faults on
        out = capsys.readouterr().out
        assert "distinct injected bugs implicated" in out
        assert "corpus saved" in out

    def test_diff_rejects_malformed_backends(self, capsys):
        assert cli_main(["diff", "--backends", "minidb", "--tests", "5"]) == 2
        assert (
            cli_main(["diff", "--backends", "minidb,nope", "--tests", "5"]) == 2
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["hunt", "--tests", "0"],
            ["fleet", "--seconds", "-1"],
            ["fleet", "--tests", "50", "--max-reports", "0"],
            ["diff", "--tests", "50", "--max-reports", "0"],
            # Builds no FleetConfig, so it checks the budget itself.
            ["sqlite3", "--tests", "-2"],
        ],
    )
    def test_rejects_non_positive_budget(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("coddtest: error:")
        assert captured.out == ""

    def test_hunt_accepts_workers(self, capsys):
        rc = cli_main(
            ["hunt", "--tests", "40", "--workers", "2", "--buggy", "--seed", "3"]
        )
        assert rc == 0
        assert "tests" in capsys.readouterr().out


class TestFleetCli:
    def test_fleet_single_worker(self, capsys):
        rc = cli_main(
            ["fleet", "--tests", "60", "--buggy", "--quiet", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "merged" in out
        assert "corpus triage:" in out

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_fleet_multi_worker_with_corpus_resume(
        self, command, tmp_path, capsys
    ):
        corpus = str(tmp_path / "bugs.jsonl")
        argv = [
            command,
            "--tests", "200",
            "--workers", "2",
            "--buggy",
            "--seed", "3",
            "--quiet",
            "--corpus", corpus,
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "corpus saved" in first

        # Second invocation resumes: everything is a known duplicate.
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert "0 new unique" in second
        assert re.search(
            r"^  \((\d+) known before this run, \1 total\)$", second, re.M
        )

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_guided_run_saves_and_resumes_coverage_checkpoint(
        self, command, tmp_path, capsys
    ):
        corpus = str(tmp_path / "bugs.jsonl")
        checkpoint = corpus + ".coverage.json"
        argv = [
            command, "--tests", "200", "--workers", "2", "--buggy",
            "--seed", "3", "--quiet", "--guidance", "plan-coverage",
            "--corpus", corpus,
        ]
        maps = []
        for _ in range(2):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert f"coverage checkpoint saved to {checkpoint}\n" in out
            maps.append(CoverageMap.load(checkpoint))
        first, second = maps
        assert first.plans
        # The second run started from the first run's map: it keeps
        # every plan and counter owner, and adds owners of its own.
        assert second.seen_plans() >= first.seen_plans()
        assert set(second.plans) > set(first.plans)

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_coverage_requires_guidance(self, command, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        argv = [command, "--coverage", path, "--tests", "5", "--quiet"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "coddtest: error: --coverage requires --guidance plan-coverage\n"
        )
        assert captured.out == ""
        assert not os.path.exists(path)

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_unwritable_coverage_fails_before_the_first_test(
        self, command, tmp_path, capsys
    ):
        checkpoint = str(tmp_path / "missing" / "c.json")
        argv = [
            command, "--tests", "50", "--quiet", "--guidance",
            "plan-coverage", "--coverage", checkpoint,
            "--corpus", str(tmp_path / "bugs.jsonl"),
        ]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("coddtest: error: ")
        assert "missing" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    @pytest.mark.parametrize(
        "content",
        ["{not json", '{"plans": 5}', "[1, 2]", '{"plans": {"s": ["fp"]}}'],
        ids=["truncated", "wrong-shape", "not-an-object", "not-a-counter"],
    )
    def test_malformed_coverage_names_the_file(
        self, command, content, tmp_path, capsys
    ):
        checkpoint = tmp_path / "c.json"
        checkpoint.write_text(content + "\n")
        argv = [
            command, "--tests", "50", "--quiet", "--guidance",
            "plan-coverage", "--coverage", str(checkpoint),
        ]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"coddtest: error: {checkpoint}: ")
        assert captured.out == ""
        assert checkpoint.read_text() == content + "\n"

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_quiet_run_names_its_status_endpoint_on_stderr(
        self, command, capsys
    ):
        argv = [
            command, "--workers", "2", "--tests", "60", "--buggy",
            "--seed", "3", "--status-port", "0", "--quiet",
        ]
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"status endpoint: http://127\.0\.0\.1:\d+/\n", captured.err
        )
        assert "status endpoint" not in captured.out

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    def test_early_stop_shows_the_reports_past_the_cap(
        self, command, tmp_path, capsys
    ):
        argv = [
            command, "--workers", "2", "--tests", "2000", "--buggy",
            "--seed", "3", "--max-reports", "3", "--quiet",
            "--corpus", str(tmp_path / "bugs.jsonl"),
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        merged = re.search(
            r"^merged .* (\d+) +[\d.]+(?:  \(\+(\d+) past --max-reports\))?$",
            out,
            re.M,
        )
        absorbed = re.search(r"\((\d+) new unique, (\d+) duplicates", out)
        assert merged and absorbed, out
        assert int(merged[1]) == 3
        assert int(merged[1]) + int(merged[2] or 0) == int(absorbed[1]) + int(
            absorbed[2]
        )

    def test_fleet_lists_new_bugs_in_a_deterministic_order(self, capsys):
        # Reports reach the corpus in an order that depends on how the
        # two shards are scheduled; the listing must not.
        argv = [
            "fleet", "--tests", "300", "--workers", "2", "--buggy",
            "--seed", "2", "--quiet",
        ]
        listings = []
        for _ in range(2):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            listings.append(
                [line for line in out.splitlines() if line.startswith("[")]
            )
        assert len(listings[0]) == 5
        assert listings[0] == listings[1]

    @pytest.mark.parametrize("command", ["fleet", "diff"])
    @pytest.mark.parametrize(
        "line",
        ['{"fingerprint": "abc"}', '{"fingerprint": "abc'],
        ids=["missing-field", "truncated"],
    )
    def test_malformed_corpus_names_file_and_line(
        self, command, line, tmp_path, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        argv = [command, "--tests", "5", "--quiet", "--corpus", str(path)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"coddtest: error: {path}:1: ")
        assert captured.out == ""


class TestTraceCli:
    """`coddtest trace report` and `coddtest top` on real fleet traces."""

    @pytest.mark.parametrize(
        "budget",
        [
            ["--tests", "200"],
            ["--tests", "400", "--guidance", "plan-coverage"],
        ],
        ids=["unguided", "guided"],
    )
    def test_report_and_top_render_fleet_trace(
        self, budget, tmp_path, capsys
    ):
        from repro.obs import read_trace

        trace = str(tmp_path / "run.trace.jsonl")
        argv = ["fleet", "--workers", "2", "--buggy", "--quiet"]
        assert cli_main([*argv, "--trace", trace, *budget]) == 0
        records = read_trace(trace)
        rounds = sorted(
            {r["round"] for r in records if r["ev"] == "shard_start"}
        )
        barriers = sorted(
            r["round"] for r in records if r["ev"] == "round_barrier"
        )
        events = {r["ev"] for r in records}
        if "--guidance" in budget:
            # 200 tests per worker clamp the default 4 rounds to 3.
            assert rounds == [0, 1, 2]
            assert barriers == rounds
        else:
            assert rounds == [0]
            assert barriers == []
            assert "cluster_saturated" not in events

        capsys.readouterr()
        assert cli_main(["trace", "report", trace]) == 0
        report = capsys.readouterr().out
        assert report.count("round barrier ") == len(barriers)
        assert cli_main(["top", trace]) == 0
        assert "done" in capsys.readouterr().out
        # A finished trace reads done, so --follow returns at once.
        assert cli_main(["top", "--follow", "--interval", "60", trace]) == 0
        assert capsys.readouterr().out.count("coddtest top -- done") == 1

    def test_unwritable_trace_fails_before_the_first_test(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.runner.campaign import Campaign

        entered = tmp_path / "campaign-entered"
        run = Campaign.run

        def marked(self, *args, **kwargs):
            entered.touch()  # a file, so forked workers leave it too
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Campaign, "run", marked)
        trace = str(tmp_path / "missing" / "run.jsonl")
        argv = [
            "fleet", "--workers", "2", "--tests", "50", "--buggy",
            "--quiet", "--trace", trace,
        ]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("coddtest: error: ")
        assert trace in captured.err
        assert captured.out == ""
        assert not entered.exists()


class TestCorpusCli:
    def _seed_corpus(self, tmp_path, workers="2") -> str:
        path = str(tmp_path / "bugs.jsonl")
        rc = cli_main(
            ["fleet", "--tests", "150", "--workers", workers, "--buggy",
             "--seed", "3", "--quiet", "--corpus", path]
        )
        assert rc == 0
        return path

    def test_report_is_deterministic_and_replay_verified(
        self, tmp_path, capsys
    ):
        # The acceptance scenario: a 4-worker fleet corpus, reported
        # twice, byte-identical, with replay-verified clusters.
        path = self._seed_corpus(tmp_path, workers="4")
        capsys.readouterr()

        assert cli_main(["corpus", "report", path]) == 0
        first = capsys.readouterr().out
        assert cli_main(["corpus", "report", path]) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical consecutive invocations
        assert "corpus triage:" in first
        assert "Replay" in first
        assert "reproduces" in first

    def test_report_formats(self, tmp_path, capsys):
        path = self._seed_corpus(tmp_path)
        capsys.readouterr()
        assert cli_main(
            ["corpus", "report", path, "--format", "json", "--no-replay"]
        ) == 0
        out = capsys.readouterr().out
        import json

        data = json.loads(out)
        assert data["summary"]["clusters"] >= 1
        assert cli_main(
            ["corpus", "report", path, "--format", "markdown", "--no-replay"]
        ) == 0
        assert "| Fault |" in capsys.readouterr().out

    def test_merge_and_replay(self, tmp_path, capsys):
        path = self._seed_corpus(tmp_path)
        merged = str(tmp_path / "merged.jsonl")
        capsys.readouterr()
        assert cli_main(["corpus", "merge", path, path, "--out", merged]) == 0
        assert "distinct bugs" in capsys.readouterr().out

        assert cli_main(["corpus", "replay", merged]) == 0
        out = capsys.readouterr().out
        assert "0 stale" in out

    def test_replay_prints_each_verdict_and_strict_fails_on_stale(
        self, capsys
    ):
        # The fixture's clusters replay on one engine (logic by fault
        # firing, internal error by failure class) and on a backend pair
        # (by divergence), so every detail string of the shared replay
        # check shows up here, byte for byte.
        from pathlib import Path

        corpus = str(
            Path(__file__).parents[1] / "triage" / "fixtures"
            / "corpus_small.jsonl"
        )
        assert cli_main(["corpus", "replay", corpus]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1bba4b2f58  stale        [logic] sqlite_having_between: "
            "faults ['sqlite_having_between'] no longer fire on replay",
            "fba18d4090  reproduces   [logic] sqlite_having_between "
            "[full witness]: all recorded faults fired again on replay",
            "b1ccb7e129  stale        [internal error] "
            "sqlite_ie_corr_group_subquery: no internal error raised on "
            "replay",
            "e2168b9059  stale        [logic] sqlite_index_between_where: "
            "backends agree on replay",
            "",
            "4 cluster(s): 3 stale, 1 reproducing or unverifiable",
        ]
        assert cli_main(["corpus", "replay", "--strict", corpus]) == 1

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert cli_main(["corpus", "report", missing]) == 2
        assert "error" in capsys.readouterr().err
