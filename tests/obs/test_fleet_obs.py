"""The telemetry bit-identity contract, end to end.

A fleet with every observability surface enabled -- structured trace
and live status endpoint -- must produce exactly the deterministic
outputs of a silent fleet: same merged signature, same report
fingerprints, same rendered table.  Wall-clock exists only in the obs
layer (phase timers, trace timestamps, status ages) and in the
timing fields of ``CampaignStats`` that signatures exclude.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.core import CoddTestOracle
from repro.dialects import make_engine
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.fleet.telemetry import FleetTelemetry
from repro.obs import (
    fetch_status,
    read_trace,
    snapshot_from_trace,
    summarize_trace,
    validate_record,
)
from repro.report import render_fleet_table
from repro.runner.campaign import Campaign

WORKERS = 4
TESTS = 160
SEED = 5


def _config(**kwargs) -> FleetConfig:
    return FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=WORKERS,
        seed=SEED,
        n_tests=TESTS,
        use_cache=True,
        **kwargs,
    )


def _witness(result, corpus) -> dict:
    return {
        "signature": result.merged.signature(),
        "corpus": sorted(corpus.entries),
        "table": _strip_throughput(
            render_fleet_table(result.shards, result.merged)
        ),
    }


def _strip_throughput(table: str) -> str:
    """Drop the tests/s column: it is the one wall-clock cell the table
    has always carried (exempt from the determinism guarantee)."""
    return "\n".join(
        line.rsplit(None, 1)[0] if line.strip() else line
        for line in table.splitlines()
    )


class TestFleetBitIdentity:
    def test_traced_fleet_with_status_is_bit_identical(self, tmp_path):
        silent_corpus = BugCorpus()
        silent = run_fleet(_config(), corpus=silent_corpus)

        trace_path = str(tmp_path / "run.trace.jsonl")
        telemetry = FleetTelemetry()
        snapshots: list[dict] = []

        def poll() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                url = telemetry.url
                if url is None:
                    if telemetry.server is None and snapshots:
                        return
                    time.sleep(0.005)
                    continue
                try:
                    snapshots.append(fetch_status(url, timeout=2.0))
                except OSError:
                    time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        traced_corpus = BugCorpus()
        traced = run_fleet(
            _config(trace_path=trace_path, status_port=0),
            corpus=traced_corpus,
            telemetry=telemetry,
        )
        poller.join(timeout=5.0)

        assert _witness(traced, traced_corpus) == _witness(
            silent, silent_corpus
        )

        # The trace is schema-valid and agrees with the merged stats.
        records = read_trace(trace_path)
        assert records, "trace must not be empty"
        assert all(validate_record(r) is None for r in records)
        summary = summarize_trace(records)
        assert summary["tests"] == silent.merged.tests
        # The orchestrator's cluster count lives in the trace.
        assert summary["clusters_new"] == len(traced.new_fingerprints) > 0
        assert {"generate", "parse", "execute"} <= set(summary["phases"])
        events = {r["ev"] for r in records}
        assert {"run_start", "run_finish", "shard_start",
                "shard_finish", "test_finish"} <= events

        # The endpoint served live snapshots of the right shape.
        assert snapshots, "status endpoint was never reachable"
        last = snapshots[-1]
        assert last["schema_version"] == 1
        assert last["workers"] == WORKERS
        assert last["state"] in ("starting", "running", "done")

    def test_fleet_result_carries_every_shards_phase_timings(self):
        # Per-shard timings cross the worker-process boundary in each
        # shard's CampaignStats and sum into the merged stats.
        result = run_fleet(_config(), corpus=BugCorpus())
        assert len(result.shards) == WORKERS
        for phase in ("generate", "parse", "execute", "compare"):
            calls = [s.phase_stats[phase]["calls"] for s in result.shards]
            assert all(calls), phase
            assert result.merged.phase_stats[phase]["calls"] == sum(calls)
        assert all(s.wall_seconds > 0 for s in result.shards)

    def test_guided_fleet_traced_matches_untraced(self, tmp_path):
        config = dict(guidance="plan-coverage", guidance_rounds=2)
        silent = run_fleet(_config(**config))
        trace_path = str(tmp_path / "guided.trace.jsonl")
        traced = run_fleet(
            _config(trace_path=trace_path, **config)
        )
        assert traced.merged.signature() == silent.merged.signature()
        assert traced.arm_schedules == silent.arm_schedules
        summary = summarize_trace(read_trace(trace_path))
        assert len(summary["rounds"]) >= 1
        assert summary["tests"] == silent.merged.tests


class TestTelemetryFollowsConfig:
    def test_trace_and_status_settings_come_from_the_config(self, tmp_path):
        # The telemetry is built bare; the config alone asks for the
        # trace and the status endpoint.
        trace_path = str(tmp_path / "a.jsonl")
        telemetry = FleetTelemetry()
        snapshots: list[dict] = []

        def poll() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not snapshots:
                url = telemetry.url
                try:
                    if url is not None:
                        snapshots.append(fetch_status(url, timeout=2.0))
                except OSError:
                    pass
                time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        run_fleet(
            FleetConfig(
                oracle="coddtest",
                workers=2,
                seed=SEED,
                n_tests=100,
                trace_path=trace_path,
                status_port=0,
            ),
            telemetry=telemetry,
        )
        poller.join(timeout=35.0)

        events = {r["ev"] for r in read_trace(trace_path)}
        assert {"shard_start", "test_finish"} <= events
        assert sorted(os.listdir(tmp_path)) == ["a.jsonl"]
        assert snapshots, "the status URL was never served"
        assert snapshots[0]["schema_version"] == 1


class _RecordingTelemetry(FleetTelemetry):
    """Keeps every live progress snapshot the orchestrator publishes."""

    def __init__(self) -> None:
        super().__init__()
        self.snapshots = []

    def progress(self, snap) -> None:
        super().progress(snap)
        self.snapshots.append(snap)


class TestLiveProgress:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_never_drop_at_round_barriers(self, workers):
        telemetry = _RecordingTelemetry()
        run_fleet(
            FleetConfig(
                oracle="coddtest",
                buggy=True,
                workers=workers,
                seed=5,
                n_tests=600,
                guidance="plan-coverage",
                guidance_rounds=3,
            ),
            telemetry=telemetry,
        )
        snaps = telemetry.snapshots
        assert {s.round for s in snaps} == {1, 2, 3}
        for before, after in zip(snaps, snaps[1:]):
            assert after.tests >= before.tests
            assert after.unique_plans >= before.unique_plans


def _timeless(status: dict) -> dict:
    """*status* without the fields measured from wall-clock."""
    out = {
        k: v
        for k, v in status.items()
        if k not in ("elapsed_s", "tests_per_second")
    }
    out["shards"] = {
        index: {k: v for k, v in row.items() if k != "age_s"}
        for index, row in status["shards"].items()
    }
    return out


class TestOneSnapshot:
    @pytest.mark.parametrize(
        "workers,guidance",
        [(1, "plan-coverage"), (2, None), (2, "plan-coverage")],
    )
    def test_final_status_equals_top_of_the_trace(
        self, tmp_path, workers, guidance
    ):
        config = FleetConfig(
            oracle="coddtest",
            buggy=True,
            workers=workers,
            seed=5,
            n_tests=600,
            guidance=guidance,
            trace_path=str(tmp_path / "run.jsonl"),
            status_port=0,
        )
        telemetry = FleetTelemetry()
        result = run_fleet(
            config,
            corpus=BugCorpus(reduce_fn=make_replay_reducer(config)),
            telemetry=telemetry,
        )
        status = _timeless(telemetry.board.snapshot())
        top = _timeless(snapshot_from_trace(read_trace(config.trace_path)))
        assert status == top
        assert status["state"] == "done"
        rows = status["shards"].values()
        assert sum(row["tests"] for row in rows) == status["tests"]
        assert status["unique_plans"] == len(result.merged.unique_plans)
        assert status["clusters"] == len(result.clusters)

    def test_trace_cut_mid_round_shows_its_shards_running(self, tmp_path):
        # An interrupted fleet leaves a trace that stops mid-round; a
        # shard that started a round it has not finished is running.
        config = FleetConfig(
            oracle="coddtest",
            buggy=True,
            workers=2,
            seed=5,
            n_tests=600,
            guidance="plan-coverage",
            trace_path=str(tmp_path / "run.jsonl"),
        )
        run_fleet(config)
        records = read_trace(config.trace_path)
        cut = 1 + max(
            i
            for i, record in enumerate(records)
            if record["ev"] == "shard_start" and record["round"] == 2
        )
        snap = snapshot_from_trace(records[:cut])
        assert snap["state"] == "running"
        assert snap["round"] == 3
        # Each shard's age counts from its last record of any kind.
        starts = {
            str(r["shard"]): r["ts"]
            for r in records[:cut]
            if r["ev"] == "shard_start"
        }
        assert set(snap["shards"]) == set(starts) == {"0", "1"}
        last = records[cut - 1]["ts"]
        seen = {
            str(r["shard"]): r["ts"]
            for r in records[:cut]
            if r["shard"] is not None
        }
        for shard, row in snap["shards"].items():
            assert row["done"] is False
            assert row["age_s"] == round(last - seen[shard], 3)


class TestCampaignPhaseStats:
    def test_phase_stats_populated_but_excluded_from_signature(self):
        def run():
            oracle = CoddTestOracle(max_depth=3)
            adapter = MiniDBAdapter(
                make_engine("sqlite", with_catalog_faults=True)
            )
            return Campaign(oracle, adapter, seed=3).run(n_tests=40)

        a, b = run(), run()
        assert {"generate", "parse", "execute", "compare"} <= set(
            a.phase_stats
        )
        assert a.phase_stats["execute"]["calls"] == b.phase_stats[
            "execute"
        ]["calls"]
        # Wall-clock differs between the runs; signatures must not.
        assert "phase_stats" not in a.signature()
        assert a.signature() == b.signature()

    def test_merge_sums_phase_stats(self):
        from repro.runner.campaign import CampaignStats

        a = CampaignStats(oracle="coddtest")
        a.phase_stats = {"execute": {"calls": 2, "seconds": 0.5}}
        b = CampaignStats(oracle="coddtest")
        b.phase_stats = {"execute": {"calls": 3, "seconds": 0.25}}
        merged = CampaignStats.merge([a, b])
        assert merged.phase_stats["execute"] == {
            "calls": 5,
            "seconds": 0.75,
        }
