"""Corpus loading: era tolerance, multi-file order, deterministic merge."""

import json

import pytest

from repro.fleet import fingerprint_report
from repro.fleet.corpus import CorpusEntry
from repro.oracles_base import TestReport as Report  # alias: not a test class
from repro.triage import iter_corpus_file, load_corpus, merge_corpora

MODERN_ENTRY = {
    "fingerprint": "feed000000000001",
    "oracle": "coddtest",
    "kind": "logic",
    "statements": ["CREATE TABLE t0 (c0 INT)", "SELECT * FROM t0"],
    "description": "mismatch",
    "fired_faults": ["sqlite_view_join_where"],
    "reduced_statements": None,
    "times_seen": 2,
    "backend_pair": ["minidb[sqlite]", "sqlite3"],
    "plan_fingerprint": "SEL(SCAN(t0))|SCAN t#",
    "dialect": "sqlite",
    "first_seen_shard": 1,
    "first_seen_seed": 9,
}

#: The PR-1 on-disk shape: no backend_pair, no provenance quartet.
PR1_ENTRY = {
    "fingerprint": "feed000000000002",
    "oracle": "coddtest",
    "kind": "logic",
    "statements": ["CREATE TABLE t1 (c0 INT)", "SELECT * FROM t1"],
    "description": "old",
    "fired_faults": ["sqlite_having_between"],
    "reduced_statements": None,
    "times_seen": 3,
}


def write_jsonl(path, entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return str(path)


class TestEraTolerance:
    def test_pr1_entry_loads_as_single_engine(self, tmp_path):
        path = write_jsonl(tmp_path / "old.jsonl", [PR1_ENTRY])
        (entry,) = load_corpus(path)
        assert entry.backend_pair is None
        assert entry.plan_fingerprint is None
        assert entry.dialect is None
        assert entry.first_seen_shard is None
        assert entry.first_seen_seed is None
        assert entry.times_seen == 3

    def test_modern_entry_round_trips_provenance(self, tmp_path):
        path = write_jsonl(tmp_path / "new.jsonl", [MODERN_ENTRY])
        (entry,) = load_corpus(path)
        assert entry.backend_pair == ["minidb[sqlite]", "sqlite3"]
        assert entry.plan_fingerprint == "SEL(SCAN(t0))|SCAN t#"
        assert (entry.first_seen_shard, entry.first_seen_seed) == (1, 9)
        assert entry.dialect == "sqlite"

    def test_missing_fingerprint_is_recomputed(self, tmp_path):
        raw = {k: v for k, v in PR1_ENTRY.items() if k != "fingerprint"}
        path = write_jsonl(tmp_path / "raw.jsonl", [raw])
        (entry,) = load_corpus(path)
        expected = fingerprint_report(
            Report(
                oracle=raw["oracle"],
                kind=raw["kind"],
                statements=list(raw["statements"]),
                description=raw["description"],
                fired_faults=frozenset(raw["fired_faults"]),
            )
        )
        assert entry.fingerprint == expected

    def test_malformed_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(PR1_ENTRY) + "\n{not json\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            list(iter_corpus_file(str(path)))

    def test_missing_required_field_names_file_and_line(self, tmp_path):
        path = write_jsonl(tmp_path / "partial.jsonl", [{"oracle": "x"}])
        with pytest.raises(ValueError, match=r"partial\.jsonl:1"):
            list(iter_corpus_file(str(path)))

    def test_invalid_field_value_names_file_and_line(self, tmp_path):
        bad = dict(PR1_ENTRY, times_seen="xx")
        path = write_jsonl(tmp_path / "badval.jsonl", [bad])
        with pytest.raises(ValueError, match=r"badval\.jsonl:1"):
            list(iter_corpus_file(str(path)))


class TestLoadOrder:
    def test_multi_file_preserves_argument_then_file_order(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", [MODERN_ENTRY])
        b = write_jsonl(tmp_path / "b.jsonl", [PR1_ENTRY])
        fps = [e.fingerprint for e in load_corpus([b, a])]
        assert fps == ["feed000000000002", "feed000000000001"]

    def test_a_fingerprints_last_line_in_a_file_wins(self, tmp_path):
        # The fleet re-appends an entry once its witness arrives.
        reduced = dict(MODERN_ENTRY, reduced_statements=["SELECT 1"],
                       times_seen=4)
        path = write_jsonl(
            tmp_path / "c.jsonl", [MODERN_ENTRY, PR1_ENTRY, reduced]
        )
        entries = load_corpus(path)
        assert [e.fingerprint for e in entries] == [
            "feed000000000001", "feed000000000002",
        ]
        assert entries[0].reduced_statements == ["SELECT 1"]
        assert entries[0].times_seen == 4
        # Across files sightings still accumulate.
        other = write_jsonl(tmp_path / "d.jsonl", [MODERN_ENTRY])
        assert len(load_corpus([path, other])) == 3
        merged = merge_corpora([path, other])
        assert merged.entries["feed000000000001"].times_seen == 6

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps(PR1_ENTRY) + "\n\n")
        assert len(load_corpus(str(path))) == 1


class TestMerge:
    def test_dedup_accumulates_times_seen(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", [MODERN_ENTRY, PR1_ENTRY])
        dup = dict(MODERN_ENTRY, times_seen=5)
        b = write_jsonl(tmp_path / "b.jsonl", [dup])
        merged = merge_corpora([a, b])
        assert len(merged) == 2
        assert merged.entries["feed000000000001"].times_seen == 7

    def test_merge_output_is_sorted_and_deterministic(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", [MODERN_ENTRY])
        b = write_jsonl(tmp_path / "b.jsonl", [PR1_ENTRY])
        out1 = tmp_path / "m1.jsonl"
        out2 = tmp_path / "m2.jsonl"
        merge_corpora([a, b], out_path=str(out1))
        merge_corpora([b, a], out_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        fps = [
            json.loads(line)["fingerprint"]
            for line in out1.read_text().splitlines()
        ]
        assert fps == sorted(fps)

    def test_merged_entries_survive_reload(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", [PR1_ENTRY])
        out = tmp_path / "merged.jsonl"
        merge_corpora([a], out_path=str(out))
        (entry,) = load_corpus(str(out))
        assert isinstance(entry, CorpusEntry)
        assert entry.fingerprint == "feed000000000002"
