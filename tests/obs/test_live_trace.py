"""The trace is the live record of its run.

The orchestrator is the trace's one writer: each shard's records ride
its progress messages, and the file holds every message the collector
has taken, from the run's first line.  So the trace of a running fleet
folds into the status the collector has published, a fleet that fails
keeps what it recorded, and ``coddtest top --follow`` can watch a file.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.fleet.telemetry import FleetTelemetry
from repro.obs import read_trace, snapshot_from_trace
from repro.runner.campaign import Campaign


def _config(path: str, **kwargs) -> FleetConfig:
    settings = dict(
        oracle="coddtest", buggy=True, workers=2, seed=5, n_tests=400
    )
    settings.update(kwargs)
    return FleetConfig(trace_path=path, **settings)


class _TraceReader(FleetTelemetry):
    """Reads its trace back at every live progress snapshot."""

    def __init__(self) -> None:
        super().__init__()
        self.views: list[tuple[list[str], list[dict], object]] = []

    def progress(self, snap) -> None:
        super().progress(snap)
        path = self.config.trace_path
        self.views.append(
            (sorted(os.listdir(os.path.dirname(path))), read_trace(path), snap)
        )


class TestLiveTrace:
    def test_trace_is_the_live_record_of_its_run(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        for seed in (5, 6):  # the second run reuses the first one's path
            telemetry = _TraceReader()
            run_fleet(_config(path, seed=seed), telemetry=telemetry)
            assert telemetry.views
            for files, records, snap in telemetry.views:
                assert files == ["run.jsonl"]
                live = snapshot_from_trace(records)
                assert live["seed"] == seed
                assert live["state"] == "running"
                assert live["tests"] > 0
                # The file holds what the collector has published, and
                # nothing of the earlier run at this path.
                assert live["tests"] == snap.tests
                assert live["reports"] == snap.reports
                assert [r["ev"] for r in records].count("run_start") == 1
            assert snapshot_from_trace(read_trace(path))["state"] == "done"

    def test_running_trace_shows_cache_and_plans(self, tmp_path):
        # The counters the collector holds after each message, credited
        # ddmin jobs included, reach the trace with that message.
        path = str(tmp_path / "run.jsonl")
        config = _config(path, n_tests=600, guidance="plan-coverage")
        telemetry = _TraceReader()
        run_fleet(
            config,
            corpus=BugCorpus(reduce_fn=make_replay_reducer(config)),
            telemetry=telemetry,
        )
        for _, records, snap in telemetry.views:
            live = snapshot_from_trace(records)
            assert live["state"] == "running"
            assert live["unique_plans"] == snap.unique_plans
            assert live["cache"]["hits"] == snap.cache_hits
            assert live["cache"]["misses"] == snap.cache_misses
        last = telemetry.views[-1][2]
        assert last.cache_hits > 0 and last.unique_plans > 0
        assert "reduce" in {r["ev"] for r in read_trace(path)}

    def test_top_follow_watches_a_running_trace(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")

        class Paused(FleetTelemetry):
            paused = False

            def progress(self, snap) -> None:
                super().progress(snap)
                if not self.paused:  # give the watcher time to look
                    self.paused = True
                    time.sleep(0.5)

        fleet = threading.Thread(
            target=run_fleet,
            args=(_config(path, workers=1, n_tests=300),),
            kwargs={"telemetry": Paused()},
        )
        fleet.start()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.01)
        rc = cli_main(["top", "--follow", "--interval", "0.05", path])
        fleet.join(timeout=60.0)
        assert not fleet.is_alive()
        assert rc == 0
        heads = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("coddtest top -- ")
        ]
        assert any(line.startswith("coddtest top -- running") for line in heads)
        assert heads[-1].startswith("coddtest top -- done")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_that_raises_keeps_its_records(
        self, tmp_path, monkeypatch, workers
    ):
        one_test = Campaign._one_test

        def failing(self) -> None:
            if self.stats.tests + self.stats.skipped == 60:
                raise RuntimeError("planted failure")
            one_test(self)

        monkeypatch.setattr(Campaign, "_one_test", failing)
        path = str(tmp_path / "run.jsonl")
        with pytest.raises((RuntimeError, ReproError), match="planted"):
            run_fleet(_config(path, workers=workers))
        records = read_trace(path)
        for shard in range(workers):
            mine = [r for r in records if r["shard"] == shard]
            assert mine[0]["ev"] == "shard_start"
            assert [r["n"] for r in mine if r["ev"] == "test_finish"] == list(
                range(60)
            )
            assert "shard_finish" not in {r["ev"] for r in mine}


class TestOpenRound:
    def test_open_round_counts_what_its_shard_finish_reports(self, tmp_path):
        # Cut a guided fleet's trace just before each shard_finish: the
        # round the record closes counts from its test records, and
        # folding the record itself changes no count.
        path = str(tmp_path / "run.jsonl")
        run_fleet(
            _config(path, n_tests=600, guidance="plan-coverage",
                    guidance_rounds=3)
        )
        records = read_trace(path)
        finishes = [
            i for i, r in enumerate(records) if r["ev"] == "shard_finish"
        ]
        assert len(finishes) == 6
        for i in finishes:
            shard = str(records[i]["shard"])
            before = snapshot_from_trace(records[:i])
            after = snapshot_from_trace(records[: i + 1])
            assert before["state"] == after["state"] == "running"
            assert before["shards"][shard]["done"] is False
            assert after["shards"][shard]["done"] is True
            assert before["tests"] > 0
            for key in ("tests", "reports"):
                assert before[key] == after[key]
                assert (
                    before["shards"][shard][key]
                    == after["shards"][shard][key]
                )
            # A shard's age counts from its own last record.
            seen = max(
                r["ts"] for r in records[:i] if r["shard"] == records[i]["shard"]
            )
            assert before["shards"][shard]["age_s"] == round(
                records[i - 1]["ts"] - seen, 3
            )
