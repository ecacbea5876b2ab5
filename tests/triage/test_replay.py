"""Replay verification: reproduces / stale / unverifiable verdicts."""

from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.triage import cluster_corpus, replay_clusters, replay_representative
from repro.fleet.corpus import CorpusEntry
from repro.triage.replay import (
    REPRODUCES,
    STALE,
    UNVERIFIABLE,
    infer_dialect,
    parse_backend_name,
)


def make_entry(
    fingerprint="e000000000000001",
    faults=("sqlite_having_between",),
    plan="SEL(SCAN(t0))",
    pair=None,
    kind="logic",
    statements=None,
):
    return CorpusEntry(
        fingerprint=fingerprint,
        oracle="coddtest",
        kind=kind,
        statements=list(statements or ["CREATE TABLE t0 (c0 INT)", "SELECT 1"]),
        description="d",
        fired_faults=list(faults),
        backend_pair=list(pair) if pair else None,
        plan_fingerprint=plan,
    )


class TestParseBackendName:
    def test_minidb_display_name_carries_dialect(self):
        assert parse_backend_name("minidb[duckdb]") == ("minidb", "duckdb")

    def test_plain_names_pass_through(self):
        assert parse_backend_name("sqlite3") == ("sqlite3", None)

    def test_infer_dialect_prefers_recorded_then_pair_then_fault(self):
        (c,) = cluster_corpus([make_entry()])
        c.entries[0].dialect = "tidb"
        assert infer_dialect(c) == "tidb"
        (c2,) = cluster_corpus(
            [make_entry(pair=("minidb[duckdb]", "sqlite3"), faults=())]
        )
        assert infer_dialect(c2) == "duckdb"
        (c3,) = cluster_corpus([make_entry(faults=("sqlite_having_between",))])
        assert infer_dialect(c3) == "sqlite"


class TestVerdicts:
    def test_unverifiable_logic_without_ground_truth(self):
        (c,) = cluster_corpus([make_entry(faults=())])
        assert replay_representative(c).status == UNVERIFIABLE

    def test_unverifiable_unknown_backend(self):
        (c,) = cluster_corpus([make_entry(pair=("minidb[sqlite]", "oracledb"))])
        assert replay_representative(c).status == UNVERIFIABLE

    def test_stale_when_faults_never_fire(self):
        # A valid program that cannot trigger the recorded fault.
        (c,) = cluster_corpus(
            [
                make_entry(
                    faults=("sqlite_having_between",),
                    statements=[
                        "CREATE TABLE t0 (c0 INT)",
                        "SELECT * FROM t0",
                    ],
                )
            ]
        )
        verdict = replay_representative(c)
        assert verdict.status == STALE

    def test_stale_when_witness_no_longer_parses(self):
        (c,) = cluster_corpus(
            [
                make_entry(
                    faults=("sqlite_having_between",),
                    statements=["SELECT FROM WHERE !!"],
                )
            ]
        )
        verdict = replay_representative(c)
        assert verdict.status == STALE
        assert "no longer executes" in verdict.detail

    def test_differential_pair_that_agrees_is_stale(self):
        (c,) = cluster_corpus(
            [
                make_entry(
                    pair=("minidb[sqlite]", "sqlite3"),
                    faults=(),
                    statements=[
                        "CREATE TABLE t0 (c0 INT)",
                        "INSERT INTO t0 VALUES (1)",
                        "SELECT c0 FROM t0",
                    ],
                )
            ]
        )
        verdict = replay_representative(c)
        assert verdict.status == STALE
        assert "agree" in verdict.detail


class TestFleetRoundTrip:
    """Acceptance: clusters of a real buggy fleet replay as reproducing."""

    def test_single_engine_clusters_reproduce(self, tmp_path):
        config = FleetConfig(workers=2, n_tests=200, buggy=True, seed=3)
        corpus = BugCorpus.open(
            str(tmp_path / "bugs.jsonl"),
            reduce_fn=make_replay_reducer(config),
        )
        run_fleet(config, corpus=corpus)
        clusters = cluster_corpus(corpus.entries.values())
        assert clusters, "a buggy 200-test fleet must find bugs"
        verdicts = replay_clusters(clusters)
        assert set(verdicts) == {c.cluster_id for c in clusters}
        statuses = {v.status for v in verdicts.values()}
        assert REPRODUCES in statuses
        # Ground-truth witnesses replayed on the same engine never go
        # stale: the catalog did not change under the test.
        assert all(
            v.status in (REPRODUCES, UNVERIFIABLE) for v in verdicts.values()
        )
        # ddmin's still-fails check accepts no candidate that triage's
        # replay rejects: every reduced witness reproduces as reduced.
        reduced = [c for c in clusters if c.representative.reduced_statements]
        assert reduced, "the reducing fleet must reduce some witness"
        assert all(
            verdicts[c.cluster_id].witness == "reduced" for c in reduced
        )

    def test_differential_clusters_reproduce(self, tmp_path):
        config = FleetConfig(
            oracle="differential",
            backend_pair=("minidb", "sqlite3"),
            workers=1,
            n_tests=200,
            buggy=True,
            seed=7,
        )
        corpus = BugCorpus.open(str(tmp_path / "div.jsonl"))
        run_fleet(config, corpus=corpus)
        clusters = cluster_corpus(corpus.entries.values())
        assert clusters, "a buggy 200-test diff fleet must find divergences"
        verdicts = replay_clusters(clusters)
        assert any(v.status == REPRODUCES for v in verdicts.values())

    def test_replay_is_deterministic(self, tmp_path):
        config = FleetConfig(workers=1, n_tests=120, buggy=True, seed=5)
        corpus = BugCorpus.open(str(tmp_path / "bugs.jsonl"))
        run_fleet(config, corpus=corpus)
        clusters = cluster_corpus(corpus.entries.values())
        assert replay_clusters(clusters) == replay_clusters(clusters)


class TestRepresentativeSelectionDeterminism:
    """Pinned: representative selection and dialect inference must not
    depend on the order corpus files were merged in (two witnesses of
    one cluster can share a reduced length; the tie must break on
    fingerprint, and replay must infer the same dialect either way)."""

    def _two_witnesses(self):
        # Same cluster key (same faults/plan/kind), same reduced length,
        # different fingerprints and recorded dialects.
        a = make_entry(fingerprint="aaaa000000000001")
        a.reduced_statements = ["CREATE TABLE t0 (c0 INT)", "SELECT 1"]
        a.dialect = "sqlite"
        b = make_entry(fingerprint="bbbb000000000002")
        b.reduced_statements = ["CREATE TABLE t0 (c0 BIGINT)", "SELECT 2"]
        b.dialect = "tidb"
        return a, b

    def test_same_representative_in_either_merge_order(self):
        a, b = self._two_witnesses()
        (forward,) = cluster_corpus([a, b])
        a2, b2 = self._two_witnesses()
        (backward,) = cluster_corpus([b2, a2])
        assert (
            forward.representative.fingerprint
            == backward.representative.fingerprint
            == "aaaa000000000001"  # smallest fingerprint wins the tie
        )

    def test_same_inferred_dialect_in_either_merge_order(self):
        a, b = self._two_witnesses()
        (forward,) = cluster_corpus([a, b])
        a2, b2 = self._two_witnesses()
        (backward,) = cluster_corpus([b2, a2])
        assert infer_dialect(forward) == infer_dialect(backward)
        # Specifically: the dialect of the *representative*, not of
        # whichever entry happened to be loaded first.
        assert infer_dialect(backward) == "sqlite"

    def test_dialect_scan_is_fingerprint_ordered_when_rep_has_none(self):
        a, b = self._two_witnesses()
        a.dialect = None  # representative (smallest fp) lacks a dialect
        b2, a2 = self._two_witnesses()[1], self._two_witnesses()[0]
        a2.dialect = None
        (forward,) = cluster_corpus([a, b])
        (backward,) = cluster_corpus([b2, a2])
        # Falls back to the fingerprint-ordered scan: entry b both ways.
        assert infer_dialect(forward) == infer_dialect(backward) == "tidb"

    def test_same_replay_verdict_in_either_merge_order(self):
        a, b = self._two_witnesses()
        (forward,) = cluster_corpus([a, b])
        a2, b2 = self._two_witnesses()
        (backward,) = cluster_corpus([b2, a2])
        vf = replay_representative(forward)
        vb = replay_representative(backward)
        assert (vf.status, vf.witness, vf.detail) == (
            vb.status,
            vb.witness,
            vb.detail,
        )

