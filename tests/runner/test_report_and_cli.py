"""Report rendering and CLI tests."""

import pytest

from repro.cli import main as cli_main
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
            }
        ]
        text = render_efficiency_table(rows)
        assert "norec" in text and "63.00%" in text

    def test_maxdepth_series(self):
        text = render_maxdepth_series(
            {1: {"us_per_query": 10.0, "tests": 100, "unique_plans": 5}}
        )
        assert "MaxDepth" in text and "10.0" in text

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

    def test_fleet_multi_worker_with_corpus_resume(self, tmp_path, capsys):
        corpus = str(tmp_path / "bugs.jsonl")
        argv = [
            "fleet",
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

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert cli_main(["corpus", "report", missing]) == 2
        assert "error" in capsys.readouterr().err
