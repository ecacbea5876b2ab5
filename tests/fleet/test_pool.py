"""The fleet's worker pool: forked once per fleet, ddmin jobs go to
whichever worker is free, and workers never outlive their
orchestrator.

A reduced witness is a pure function of its job, so moving a job to
another worker must change no deterministic output: not the corpus,
not a witness, not a shard's cache counters, not a replay verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.fleet.orchestrator as orchestrator
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.obs import read_trace
from repro.triage import load_corpus
from repro.triage.replay import replay_clusters

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _config(**kwargs) -> FleetConfig:
    settings = dict(
        oracle="coddtest",
        buggy=True,
        workers=2,
        seed=5,
        n_tests=600,
        guidance="plan-coverage",
    )
    settings.update(kwargs)
    return FleetConfig(**settings)


def _reducing_run(config: FleetConfig) -> dict:
    corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
    result = run_fleet(config, corpus=corpus)
    verdicts = replay_clusters(result.clusters)
    return {
        "corpus": [entry.to_dict() for entry in corpus.entries.values()],
        "witnesses": [
            [report.reduced_statements for report in shard.reports]
            for shard in result.shards
        ],
        "cache": [shard.cache_stats for shard in result.shards],
        "verdicts": {
            cid: [v.status, v.witness] for cid, v in sorted(verdicts.items())
        },
    }


def _alive(pid: int) -> bool:
    """Whether process *pid* runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


class TestJobs:
    def test_stolen_jobs_change_nothing(self, tmp_path, monkeypatch):
        # Slow shard 0's tests, before the pool forks, so shard 1's
        # worker finishes first and reduces shard 0's jobs.
        run_shard = orchestrator._run_shard

        def slowed(spec, post, should_stop=None, next_job=None):
            if spec.shard_index == 0:
                inner = should_stop

                def should_stop() -> bool:
                    time.sleep(0.005)
                    return inner is not None and inner()

            return run_shard(spec, post, should_stop, next_job)

        plain = _reducing_run(_config())
        monkeypatch.setattr(orchestrator, "_run_shard", slowed)
        path = str(tmp_path / "run.jsonl")
        slowed_run = _reducing_run(_config(trace_path=path))
        reductions = [r for r in read_trace(path) if r["ev"] == "reduce"]
        assert any(
            r["finder"] == 0 and r["shard"] == 1 for r in reductions
        ), "shard 1's worker reduced none of shard 0's jobs"
        assert slowed_run == plain

    def test_time_budget_reduces_inline(self, tmp_path):
        # Under a seconds budget each report is reduced by its own
        # shard, at once: its reduce record follows its bug_found
        # before the shard's next test starts.  Two rounds, so the
        # pool outlives a round of inline reductions.
        path = str(tmp_path / "run.jsonl")
        config = _config(n_tests=None, seconds=4.0, trace_path=path)
        run_fleet(
            config, corpus=BugCorpus(reduce_fn=make_replay_reducer(config))
        )
        records = read_trace(path)
        barriers = [r for r in records if r["ev"] == "round_barrier"]
        assert [r["round"] for r in barriers] == [0, 1]
        reductions = [r for r in records if r["ev"] == "reduce"]
        assert reductions
        assert all(r["shard"] == r["finder"] for r in reductions)
        for shard in (0, 1):
            events = [
                r["ev"]
                for r in records
                if r["shard"] == shard
                and r["ev"] in ("test_start", "bug_found", "reduce")
            ]
            for i, ev in enumerate(events):
                if ev == "reduce":
                    assert events[i - 1] == "bug_found"


class TestCorpusFile:
    def test_file_cut_before_a_witness_loads_each_entry_once(
        self, tmp_path
    ):
        path = str(tmp_path / "bugs.jsonl")
        config = _config()
        corpus = BugCorpus.open(path, reduce_fn=make_replay_reducer(config))
        run_fleet(config, corpus=corpus)
        # Unsaved, the file holds every entry once, with its witness.
        assert [e.to_dict() for e in load_corpus(path)] == [
            e.to_dict() for e in BugCorpus.open(path).entries.values()
        ]
        loaded = BugCorpus.open(path).entries
        # In arrival order: only save() writes the round's shard order.
        assert set(loaded) == set(corpus.entries)
        for fingerprint, entry in corpus.entries.items():
            assert loaded[fingerprint].reduced_statements == (
                entry.reduced_statements
            )
        # Cut the file where an entry's witness is still to come.
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        seen: set[str] = set()
        for i, line in enumerate(lines):
            fingerprint = json.loads(line)["fingerprint"]
            if fingerprint in seen:
                break
            seen.add(fingerprint)
        else:
            pytest.fail("no witness arrived after its entry was appended")
        first = next(
            j for j, line in enumerate(lines) if fingerprint in line
        )
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[: first + 1]), encoding="utf-8")
        entries = load_corpus(str(cut))
        assert len(entries) == len({e.fingerprint for e in entries})
        assert list(BugCorpus.open(str(cut)).entries) == [
            e.fingerprint for e in entries
        ]
        assert entries[-1].fingerprint == fingerprint
        assert entries[-1].reduced_statements is None

    def test_saved_file_is_pinned(self, tmp_path):
        # Three runs save the same bytes, those of inline reduction.
        digests = set()
        for run in range(3):
            path = str(tmp_path / f"bugs{run}.jsonl")
            config = _config()
            corpus = BugCorpus.open(
                path, reduce_fn=make_replay_reducer(config)
            )
            run_fleet(config, corpus=corpus)
            corpus.save()
            with open(path, "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
        assert digests == {SAVED_CORPUS_SHA256}


#: sha256 of the saved corpus of ``_config()`` with its replay reducer.
SAVED_CORPUS_SHA256 = (
    "54631f37d896b417b616fdbf36a97a77d1c51b049186e6ed664baced367038b6"
)


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/PID/task/PID/children",
)
def test_workers_exit_when_their_orchestrator_is_killed():
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "fleet", "--seconds", "8",
            "--workers", "2", "--buggy", "--quiet",
        ],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        time.sleep(2.0)
        with open(
            f"/proc/{proc.pid}/task/{proc.pid}/children", encoding="ascii"
        ) as fh:
            workers = [int(pid) for pid in fh.read().split()]
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 3.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        for pid in [proc.pid, *workers]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
