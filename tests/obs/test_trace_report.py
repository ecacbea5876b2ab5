"""Offline trace analysis: report rendering, top snapshots, and their
determinism (pure functions of the input records)."""

from __future__ import annotations

import json

from repro.obs.report import (
    render_phase_table,
    render_top_frame,
    render_trace_report,
    snapshot_from_trace,
    summarize_trace,
)
from repro.obs.status import STATUS_SCHEMA_VERSION
from repro.obs.trace import format_record


def _rec(ev: str, ts: float, shard=None, **payload) -> dict:
    return json.loads(format_record(ev, ts, shard, payload))


def _finished_trace() -> list[dict]:
    """The fixture run, finished by a fleet that records its final
    counters in run_finish."""
    return _fixture_trace()[:-1] + [
        _rec("run_finish", 101.3, tests=20, reports=1, wall_s=1.3,
             unique_plans=12, unique_reports=1, clusters=1),
    ]


def _fixture_trace() -> list[dict]:
    return [
        _rec("run_start", 100.0, oracle="coddtest", workers=2, seed=7),
        _rec("shard_start", 100.1, shard=0, seed=11, round=0),
        _rec("shard_start", 100.1, shard=1, seed=12, round=0),
        _rec("test_start", 100.2, shard=0, n=0),
        _rec("test_finish", 100.3, shard=0, n=0, status="ok", qok=3, qerr=0),
        _rec("bug_found", 100.4, shard=1, kind="logic", oracle="coddtest",
             faults=["sqlite_x"]),
        _rec("cluster_new", 100.5, fingerprint="ab12", kind="logic"),
        _rec("round_barrier", 100.6, round=0, rounds=2, saturated=1,
             plans=40),
        _rec(
            "shard_finish", 101.0, shard=0, tests=10, skipped=1, reports=0,
            round=0,
            phases={"execute": {"calls": 10, "seconds": 0.5},
                    "parse": {"calls": 10, "seconds": 0.1}},
            cache={"parse_hits": 8, "parse_misses": 2},
            unique_plans=9,
        ),
        _rec(
            "shard_finish", 101.2, shard=1, tests=10, skipped=0, reports=1,
            round=0,
            phases={"execute": {"calls": 10, "seconds": 0.7}},
            cache={"parse_hits": 5, "parse_misses": 5},
            unique_plans=7,
        ),
        _rec("run_finish", 101.3, tests=20, reports=1, wall_s=1.3),
    ]


class TestSummarizeTrace:
    def test_folds_counts_phases_and_cache(self):
        s = summarize_trace(_fixture_trace())
        assert s["records"] == 11 and s["invalid"] == 0
        assert s["tests"] == 20 and s["skipped"] == 1
        assert s["queries_ok"] == 3 and s["queries_err"] == 0
        assert s["clusters_new"] == 1
        assert s["unique_plans"] == 16
        assert s["phases"]["execute"] == {"calls": 20, "seconds": 1.2}
        assert s["cache"] == {"parse_hits": 13, "parse_misses": 7}
        assert s["finish"]["reports"] == 1
        assert [r["round"] for r in s["rounds"]] == [0]

    def test_invalid_records_counted_not_crashed(self):
        records = _fixture_trace() + [{"ev": "missing header"}]
        s = summarize_trace(records)
        assert s["invalid"] == 1
        assert s["tests"] == 20


class TestRenderTraceReport:
    def test_deterministic_and_carries_key_lines(self):
        records = _fixture_trace()
        out = render_trace_report(records)
        assert out == render_trace_report(list(records))
        assert "oracle coddtest, 2 worker(s), seed 7" in out
        assert "tests 20, skipped 1" in out
        assert "cache 13 hits / 7 misses (65.0% hit rate)" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert "round barrier 1/2" in out
        assert "bug at" in out
        assert "per-phase breakdown" in out

    def test_new_corpus_entries_are_new_bugs_not_clusters(self):
        # One cluster_new event per new corpus fingerprint; the cluster
        # count is run_finish's, when the record carries one.
        assert "reports 1, new bugs 1\n" in render_trace_report(
            _fixture_trace()
        )
        assert "reports 1, new bugs 1, clusters 1\n" in render_trace_report(
            _finished_trace()
        )

    def test_empty_trace(self):
        assert render_trace_report([]) == "empty trace (0 records)\n"

    def test_phase_table_bar_scales_to_widest(self):
        table = render_phase_table(
            {
                "parse": {"calls": 1, "seconds": 1.0},
                "execute": {"calls": 1, "seconds": 2.0},
            }
        )
        lines = table.splitlines()
        parse_bar = next(l for l in lines if l.strip().startswith("parse"))
        execute_bar = next(
            l for l in lines if l.strip().startswith("execute")
        )
        assert execute_bar.count("#") == 32
        assert parse_bar.count("#") == 16


class TestTopFromTrace:
    def test_snapshot_matches_status_schema(self):
        snap = snapshot_from_trace(_fixture_trace())
        assert snap["schema_version"] == STATUS_SCHEMA_VERSION
        assert snap["state"] == "done"
        assert snap["workers"] == 2 and snap["seed"] == 7
        assert snap["tests"] == 20 and snap["reports"] == 1
        assert snap["cache"]["hits"] == 13
        assert snap["round"] == 1 and snap["rounds"] == 2
        assert set(snap["shards"]) == {"0", "1"}
        assert snap["shards"]["1"]["done"] is True

    def test_run_finish_counters_win_over_shard_sums(self):
        old = snapshot_from_trace(_fixture_trace())
        assert old["unique_plans"] == 16  # summed over shard records
        assert old["clusters"] is None and old["unique_reports"] is None
        new = snapshot_from_trace(_finished_trace())
        assert new["unique_plans"] == 12
        assert new["clusters"] == 1 and new["unique_reports"] == 1

    def test_unfinished_trace_reports_running(self):
        records = [r for r in _fixture_trace() if r["ev"] != "run_finish"]
        assert snapshot_from_trace(records)["state"] == "running"

    def test_render_top_frame(self):
        snap = snapshot_from_trace(_fixture_trace())
        frame = render_top_frame(snap)
        assert frame == render_top_frame(dict(snap))
        assert "coddtest top -- done" in frame
        assert "tests 20" in frame
        assert "  0 " in frame and "done" in frame

    def test_stalled_shard_flagged(self):
        snap = snapshot_from_trace(_fixture_trace())
        snap["shards"]["0"] = {
            "tests": 3, "reports": 0, "done": False, "age_s": 42.0,
        }
        assert "stalled? (42s silent)" in render_top_frame(snap)


class TestPoolRecords:
    def test_report_counts_ddmin_jobs_and_where_they_ran(self):
        records = _finished_trace()
        records[-1:-1] = [
            _rec("reduce", 100.8, shard=0, finder=0, fingerprint="ab12",
                 statements=12, reduced=3, candidates=9, seconds=0.25),
            _rec("reduce", 100.9, shard=0, finder=1, fingerprint="cd34",
                 statements=8, reduced=None, candidates=1, seconds=0.125),
        ]
        report = render_trace_report(records)
        assert (
            "ddmin 2 jobs, 1 on a worker other than their finder's, "
            "0.38s reducing" in report.splitlines()
        )
        assert "ddmin" not in render_trace_report(_finished_trace())

    def test_open_round_counts_cache_and_plans_from_latest_progress(self):
        records = _fixture_trace()[:5] + [
            _rec("progress", 100.35, for_shard=0, tests=1, unique_plans=3,
                 cache_hits=4, cache_misses=2),
            _rec("progress", 100.45, for_shard=0, tests=1, unique_plans=5,
                 cache_hits=9, cache_misses=3),
            _rec("progress", 100.46, for_shard=1, tests=0, unique_plans=1,
                 cache_hits=1, cache_misses=1),
        ]
        snap = snapshot_from_trace(records)
        assert snap["state"] == "running"
        assert snap["unique_plans"] == 6
        assert (snap["cache"]["hits"], snap["cache"]["misses"]) == (10, 4)
        # A finished round counts from its shard_finish alone.
        finished = snapshot_from_trace(_finished_trace()[:9] + records[5:6])
        assert finished["cache"]["hits"] == 8


    def test_progress_record_leaves_the_shard_age_alone(self):
        # Shard 1's last own record is its bug at 100.4; the progress
        # record at 100.9 credits it with a job another worker reduced.
        records = _fixture_trace()[:5] + [
            _rec("bug_found", 100.4, shard=1, kind="logic",
                 oracle="coddtest", faults=["sqlite_x"]),
            _rec("reduce", 100.9, shard=0, finder=1, fingerprint="ab12",
                 statements=12, reduced=3, candidates=9, seconds=0.25),
            _rec("progress", 100.9, for_shard=1, tests=0, unique_plans=1,
                 cache_hits=5, cache_misses=2),
        ]
        snap = snapshot_from_trace(records)
        assert snap["shards"]["1"]["age_s"] == 0.5
        assert snap["shards"]["0"]["age_s"] == 0.0
        assert snap["cache"]["hits"] == 5
