"""Golden tests of the trace byte layout and schema validation.

``format_record`` is the byte-stability contract: header fields in
fixed order, payload keys sorted, one canonical JSON separator style.
These goldens pin the exact bytes, so any accidental layout change
(which would silently break ``diff``-ability of traces and every
offline consumer) fails here first.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (
    EVENT_SCHEMA,
    HEADER_FIELDS,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    format_record,
    read_trace,
    validate_record,
)


class TestFormatRecordGolden:
    def test_header_only_record(self):
        line = format_record("run_finish", 1722470000.0, None, {})
        assert line == (
            '{"v": 1, "ts": 1722470000.0, "ev": "run_finish", '
            '"shard": null}'
        )

    def test_payload_keys_sorted_after_header(self):
        line = format_record(
            "test_finish",
            1722470000.123456,
            3,
            {"status": "ok", "n": 17, "qok": 4, "qerr": 0},
        )
        assert line == (
            '{"v": 1, "ts": 1722470000.123456, "ev": "test_finish", '
            '"shard": 3, "n": 17, "qerr": 0, "qok": 4, "status": "ok"}'
        )

    def test_timestamp_rounded_to_microseconds(self):
        line = format_record("test_start", 1722470000.123456789, 0, {"n": 1})
        assert json.loads(line)["ts"] == 1722470000.123457

    def test_nested_payload_round_trips(self):
        phases = {"execute": {"calls": 2, "seconds": 0.5}}
        line = format_record(
            "shard_finish",
            1.0,
            0,
            {
                "tests": 10,
                "skipped": 0,
                "reports": 1,
                "round": 0,
                "phases": phases,
                "cache": {"parse_hits": 3},
            },
        )
        record = json.loads(line)
        assert record["phases"] == phases
        assert validate_record(record) is None

    def test_formatting_is_deterministic(self):
        payload = {"kind": "logic", "oracle": "coddtest", "faults": ["f1"]}
        a = format_record("bug_found", 2.5, 1, payload)
        b = format_record("bug_found", 2.5, 1, dict(reversed(payload.items())))
        assert a == b


class TestValidateRecord:
    def _record(self, ev: str, **payload) -> dict:
        return json.loads(format_record(ev, 1.0, 0, payload))

    def test_every_schema_event_validates_with_required_fields(self):
        samples = {
            "run_start": {"oracle": "coddtest", "workers": 2, "seed": 0},
            "run_finish": {"tests": 10, "reports": 1, "wall_s": 0.5},
            "shard_start": {"seed": 7, "round": 0},
            "shard_finish": {
                "tests": 5,
                "skipped": 0,
                "reports": 0,
                "round": 0,
                "phases": {},
                "cache": {},
            },
            "progress": {
                "for_shard": 0,
                "tests": 5,
                "unique_plans": 4,
                "cache_hits": 9,
                "cache_misses": 1,
            },
            "reduce": {
                "finder": 1,
                "fingerprint": "ab12",
                "statements": 12,
                "reduced": None,
                "candidates": 1,
                "seconds": 0.01,
            },
            "round_barrier": {
                "round": 0,
                "rounds": 2,
                "saturated": 0,
                "plans": 12,
            },
            "state": {"states": 1, "tests": 0, "cache": {}},
            "test_start": {"n": 1},
            "test_finish": {"n": 1, "status": "ok", "qok": 3, "qerr": 0},
            "bug_found": {"kind": "logic", "oracle": "tlp", "faults": []},
            "cluster_new": {"fingerprint": "ab12", "kind": "logic"},
            "cluster_saturated": {"fault": "sqlite_x"},
        }
        assert sorted(samples) == sorted(EVENT_SCHEMA)
        for ev, payload in samples.items():
            assert validate_record(self._record(ev, **payload)) is None, ev

    def test_missing_header_field_rejected(self):
        record = self._record("test_start", n=1)
        for name in HEADER_FIELDS:
            broken = {k: v for k, v in record.items() if k != name}
            assert name in (validate_record(broken) or "")

    def test_wrong_schema_version_rejected(self):
        record = self._record("test_start", n=1)
        record["v"] = TRACE_SCHEMA_VERSION + 1
        assert "version" in validate_record(record)

    def test_missing_required_payload_field_rejected(self):
        record = self._record("bug_found", kind="logic", oracle="tlp")
        assert "faults" in validate_record(record)

    def test_wrong_payload_type_rejected(self):
        record = self._record(
            "test_finish", n="one", status="ok", qok=0, qerr=0
        )
        assert "n" in validate_record(record)

    def test_unknown_event_and_extra_fields_pass(self):
        assert validate_record(self._record("totally_new_event")) is None
        record = self._record("test_start", n=1, extra="fine")
        assert validate_record(record) is None


class TestWriterAndMerge:
    def test_writer_hands_its_lines_to_drain(self):
        writer = TraceWriter(shard=0)
        writer.emit("test_start", n=1)
        writer.emit("test_start", n=2)
        lines = writer.drain()
        assert all(line.endswith("\n") for line in lines)
        records = [json.loads(line) for line in lines]
        assert [r["n"] for r in records] == [1, 2]
        assert {r["shard"] for r in records} == {0}
        assert writer.drain() == []

    def test_read_trace_returns_timestamp_order(self, tmp_path):
        # A shard's records reach the file with its next progress
        # message, after orchestrator events written in between.
        path = tmp_path / "run.jsonl"
        path.write_text(
            format_record("test_start", 3.0, 0, {"n": 1}) + "\n"
            + format_record("test_start", 2.0, 1, {"n": 1}) + "\n"
            + format_record(
                "run_start", 1.0, None,
                {"oracle": "x", "workers": 2, "seed": 0},
            ) + "\n",
            encoding="utf-8",
        )
        assert [r["ts"] for r in read_trace(str(path))] == [1.0, 2.0, 3.0]

    def test_read_trace_keeps_file_order_for_equal_timestamps(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            "".join(
                format_record("test_start", 1.0, 0, {"n": n}) + "\n"
                for n in range(5)
            ),
            encoding="utf-8",
        )
        assert [r["n"] for r in read_trace(str(path))] == list(range(5))

    def test_read_trace_skips_last_line_without_newline(self, tmp_path):
        # A running fleet's trace may end in a line it is still writing.
        path = tmp_path / "run.jsonl"
        path.write_text(
            "".join(
                format_record("test_start", 1.0 + n, 0, {"n": n}) + "\n"
                for n in range(3)
            )
            + '{"v": 1, "ts": 17224700',
            encoding="utf-8",
        )
        assert [r["n"] for r in read_trace(str(path))] == [0, 1, 2]

    def test_read_trace_raises_on_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path))
