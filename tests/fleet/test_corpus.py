"""Bug corpus: fingerprinting, dedup, persistence, resume."""

from repro.fleet import BugCorpus, fingerprint_report, normalize_statement
from repro.fleet.corpus import CorpusEntry
from repro.oracles_base import TestReport as Report  # alias: not a test class


def make_report(statements=None, kind="logic", faults=("f1",), oracle="coddtest"):
    return Report(
        oracle=oracle,
        kind=kind,
        statements=list(statements or ["CREATE TABLE t0 (c0 INT)", "SELECT c0 FROM t0"]),
        description="mismatch: 1 row vs 2 rows",
        fired_faults=frozenset(faults),
    )


class TestNormalization:
    def test_whitespace_and_case_insensitive(self):
        assert normalize_statement("SELECT  *\n FROM t0;") == normalize_statement(
            "select * from t0"
        )

    def test_random_index_names_collapse(self):
        a = normalize_statement("CREATE INDEX ix_t0_123 ON t0 (c0)")
        b = normalize_statement("CREATE INDEX ix_t0_987 ON t0 (c0)")
        assert a == b
        # ...but the indexed table stays part of the identity.
        c = normalize_statement("CREATE INDEX ix_t1_123 ON t1 (c0)")
        assert a != c


class TestFingerprint:
    def test_stable_across_cosmetic_differences(self):
        a = make_report(["SELECT  *  FROM t0"])
        b = make_report(["select * from t0;"])
        assert fingerprint_report(a) == fingerprint_report(b)

    def test_oracle_name_is_not_identity(self):
        # The same witness found by two oracles is one bug.
        a = make_report(oracle="coddtest")
        b = make_report(oracle="norec")
        assert fingerprint_report(a) == fingerprint_report(b)

    def test_kind_statements_and_faults_are_identity(self):
        base = make_report()
        assert fingerprint_report(base) != fingerprint_report(
            make_report(kind="crash")
        )
        assert fingerprint_report(base) != fingerprint_report(
            make_report(statements=["SELECT 1"])
        )
        assert fingerprint_report(base) != fingerprint_report(
            make_report(faults=("f2",))
        )


class TestBugCorpus:
    def test_add_dedupes(self):
        corpus = BugCorpus()
        assert corpus.add(make_report()) is True
        assert corpus.add(make_report()) is False
        assert len(corpus) == 1
        assert corpus.total_seen == 2

    def test_witness_reduced_elsewhere_replaces_reduce_fn(self):
        # The fleet shard that found a bug reduces it; the corpus stores
        # that witness with the first sighting and never reduces itself.
        corpus = BugCorpus()
        corpus.add(make_report(), reduced=["SELECT 1"])
        corpus.add(make_report(), reduced=["SELECT 2"])
        corpus.add(make_report(statements=["SELECT 2"]))
        assert [e.reduced_statements for e in corpus.entries.values()] == [
            ["SELECT 1"],
            None,
        ]
        assert corpus.total_seen == 3

    def test_by_kind(self):
        corpus = BugCorpus()
        corpus.add(make_report())
        corpus.add(make_report(statements=["SELECT 2"], kind="crash"))
        assert corpus.by_kind == {"logic": 1, "crash": 1}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        corpus = BugCorpus(path=path)
        corpus.add(make_report())
        corpus.add(make_report(statements=["SELECT 2"]))

        loaded = BugCorpus.open(path)
        assert len(loaded) == 2
        assert loaded.entries.keys() == corpus.entries.keys()
        entry = next(iter(loaded.entries.values()))
        assert isinstance(entry, CorpusEntry)
        assert entry.description == "mismatch: 1 row vs 2 rows"

    def test_resume_reports_only_new(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        first = BugCorpus.open(path)
        first.add(make_report())
        first.save()

        second = BugCorpus.open(path)
        assert second.add(make_report()) is False  # known from session 1
        assert second.add(make_report(statements=["SELECT 9"])) is True
        assert len(second) == 2

    def test_save_persists_times_seen(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        corpus = BugCorpus.open(path)
        corpus.add(make_report())
        corpus.add(make_report())
        corpus.save()
        assert BugCorpus.open(path).total_seen == 2

    def test_fingerprints_are_monotonic_across_sessions(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        seen: set[str] = set()
        for session in range(3):
            corpus = BugCorpus.open(path)
            assert seen <= set(corpus.entries)  # nothing ever disappears
            corpus.add(make_report(statements=[f"SELECT {session}"]))
            corpus.save()
            seen = set(corpus.entries)
        assert len(seen) == 3

    def test_provenance_stamped_on_first_seen_only(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        corpus = BugCorpus.open(path)
        corpus.add(make_report(), shard_index=2, seed=9, dialect="sqlite")
        # A later sighting from another shard must not overwrite the
        # first-seen provenance.
        corpus.add(make_report(), shard_index=0, seed=9, dialect="sqlite")
        corpus.save()

        (entry,) = BugCorpus.open(path).entries.values()
        assert entry.first_seen_shard == 2
        assert entry.first_seen_seed == 9
        assert entry.dialect == "sqlite"
        assert entry.times_seen == 2

    def test_plan_fingerprint_round_trips(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        corpus = BugCorpus.open(path)
        report = make_report()
        report.plan_fingerprint = "SEL(SCAN(t0))"
        corpus.add(report)
        corpus.save()
        (entry,) = BugCorpus.open(path).entries.values()
        assert entry.plan_fingerprint == "SEL(SCAN(t0))"

    def test_pr1_era_line_without_new_fields_loads(self, tmp_path):
        # The exact PR-1 on-disk shape: none of the post-PR-1 keys.
        import json

        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps(
                {
                    "fingerprint": "0123456789abcdef",
                    "oracle": "coddtest",
                    "kind": "logic",
                    "statements": ["SELECT 1"],
                    "description": "old",
                    "fired_faults": ["f1"],
                    "reduced_statements": None,
                    "times_seen": 2,
                }
            )
            + "\n"
        )
        loaded = BugCorpus.open(str(path))
        (entry,) = loaded.entries.values()
        assert entry.backend_pair is None
        assert entry.plan_fingerprint is None
        assert entry.first_seen_shard is None
        assert entry.dialect is None

    def test_sorted_save_is_deterministic(self, tmp_path):
        a = BugCorpus(path=str(tmp_path / "a.jsonl"))
        b = BugCorpus(path=str(tmp_path / "b.jsonl"))
        r1, r2 = make_report(), make_report(statements=["SELECT 2"])
        for report in (r1, r2):
            a.add(report)
        for report in (r2, r1):  # reversed discovery order
            b.add(report)
        a.save(sort=True)
        b.save(sort=True)
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_merge_counts_new_entries(self):
        a = BugCorpus()
        a.add(make_report())
        b = BugCorpus()
        b.add(make_report())
        b.add(make_report(statements=["SELECT 2"]))
        assert a.merge(b) == 1
        assert len(a) == 2
        # The shared entry's sighting counters accumulate.
        fp = fingerprint_report(make_report())
        assert a.entries[fp].times_seen == 2
