"""DifferentialOracle behaviour: clean pairs stay silent, planted
faults are detected, reports carry the backend pair and ground truth."""

from __future__ import annotations

import pytest

from repro.adapters import MiniDBAdapter
from repro.differential import (
    CompatPolicy,
    DifferentialAdapter,
    DifferentialOracle,
    build_pair_adapter,
)
from repro.dialects import make_engine
from repro.dialects.catalog import FAULTS_BY_ID
from repro.fleet import BugCorpus, FleetConfig, run_fleet
from repro.runner.campaign import Campaign
from repro.triage import replay_clusters


def clean_pair():
    return build_pair_adapter(("minidb", "sqlite3"))


def buggy_pair(fault_id: str | None = None):
    if fault_id is None:
        return build_pair_adapter(("minidb", "sqlite3"), buggy=True)
    primary = MiniDBAdapter(
        make_engine("sqlite", faults=[FAULTS_BY_ID[fault_id]])
    )
    from repro.adapters import Sqlite3Adapter

    secondary = Sqlite3Adapter()
    return DifferentialAdapter(
        primary, secondary, CompatPolicy.for_pair(primary, secondary)
    )


class TestCleanPair:
    def test_no_false_positives(self):
        stats = Campaign(DifferentialOracle(), clean_pair(), seed=11).run(
            n_tests=300
        )
        assert stats.tests == 300
        assert stats.reports == []

    def test_minidb_vs_minidb_pair(self):
        # Two independent fault-free MiniDB instances agree with each
        # other on the full portable surface (including ANY/ALL, which
        # the sqlite3 pair cannot exercise).
        pair = build_pair_adapter(("minidb", "minidb"))
        stats = Campaign(DifferentialOracle(), pair, seed=3).run(n_tests=200)
        assert stats.reports == []


class TestFaultDetection:
    def test_detects_planted_view_join_fault(self):
        # sqlite_view_join_where force-falses WHERE above view joins:
        # the reference SQLite returns rows MiniDB drops.
        stats = Campaign(
            DifferentialOracle(), buggy_pair("sqlite_view_join_where"), seed=0
        ).run(n_tests=400)
        assert "sqlite_view_join_where" in stats.detected_fault_ids

    def test_reports_carry_backend_pair_and_fingerprints(self):
        stats = Campaign(
            DifferentialOracle(), buggy_pair(), seed=7
        ).run(n_tests=300)
        assert stats.reports
        for report in stats.reports:
            assert report.backend_pair == ("minidb[sqlite]", "sqlite3")
            assert report.oracle == "differential"
            assert "plan" in report.description
            # Replayable program: state DDL precedes the query.
            assert report.statements[0].upper().startswith("CREATE TABLE")

    def test_report_roundtrips_backend_pair(self):
        stats = Campaign(
            DifferentialOracle(), buggy_pair(), seed=7
        ).run(n_tests=300)
        from repro.oracles_base import TestReport

        report = stats.reports[0]
        clone = TestReport.from_dict(report.to_dict())
        assert clone.backend_pair == report.backend_pair
        assert clone.statements == report.statements

    def test_engine_failures_carry_pair_and_replay_on_it(self):
        # Internal errors, crashes and hangs are reported by the base
        # oracle; the differential oracle must stamp its backend pair on
        # them too, so triage replays each one on a rebuilt pair.
        config = FleetConfig(
            oracle="differential",
            backend_pair=("minidb", "sqlite3"),
            dialect="duckdb",
            buggy=True,
            seed=0,
            n_tests=60,
        )
        result = run_fleet(config, corpus=BugCorpus())
        failures = [
            c
            for c in result.clusters
            if c.kind in ("crash", "hang", "internal error")
        ]
        assert {c.kind for c in failures} == {"crash", "hang", "internal error"}
        verdicts = replay_clusters(failures)
        for cluster in failures:
            assert cluster.backend_pair == ("minidb[duckdb]", "sqlite3")
            assert verdicts[cluster.cluster_id].status == "reproduces"


class TestFactoryPairEntryPoints:
    def test_build_pair_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            build_pair_adapter(("minidb", "postgres"))
