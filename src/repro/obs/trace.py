"""Structured trace events: the run's JSONL flight recorder.

A trace is a stream of schema-versioned JSON records, one per line,
covering the whole lifecycle of a campaign or fleet run::

    {"v": 1, "ts": 1722470000.123456, "ev": "test_finish", "shard": 0,
     "n": 17, "qerr": 0, "qok": 4, "status": "ok"}

Field ordering is part of the schema: every record starts with the
header ``v, ts, ev, shard`` followed by its payload keys in sorted
order, so rendering is byte-stable (golden-tested) and two traces of
the same run diff cleanly.  ``ts`` is Unix wall-clock seconds -- the
one surface where wall-clock is allowed, per the obs determinism
contract.

Event taxonomy (``EVENT_SCHEMA`` below is the machine-readable form
``tools/trace_check.py`` validates against):

* ``run_start`` / ``run_finish``   -- one fleet invocation,
* ``shard_start`` / ``shard_finish`` -- worker lifecycle; the finish
  record carries the shard's cache stats and per-phase time breakdown,
* ``round_barrier``                -- guided snapshot-exchange barrier,
* ``state``                        -- one generated database state,
  carrying the *cumulative* cache hit/miss counters (per-lookup events
  would dwarf the trace; per-state granularity bounds the volume while
  keeping the hit-rate trajectory reconstructable),
* ``test_start`` / ``test_finish`` -- one oracle test,
* ``bug_found``                    -- a report was filed,
* ``cluster_new`` / ``cluster_saturated`` -- corpus triage transitions.

Writers are per-worker and non-blocking on the hot path: ``emit``
appends to an in-memory buffer that is flushed to disk in batches
(one ``writelines`` per ``buffer_size`` events), never fsyncing and
never taking locks shared with another process.  Each fleet worker
writes its own part file; the orchestrator merges the parts into the
final trace sorted by timestamp (:func:`merge_trace_files`).

Schema versioning policy: ``TRACE_SCHEMA_VERSION`` bumps whenever a
field is removed or changes meaning/type, or header ordering changes;
*adding* a new event type or a new payload field is backward-compatible
and does not bump (readers must ignore unknown fields and events).
Golden tests in ``tests/obs/test_trace.py`` enforce the byte layout.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterable

#: Bump on breaking layout changes only; see the module docstring.
TRACE_SCHEMA_VERSION = 1

#: Header fields, in order, present on every record.  ``shard`` is
#: None for orchestrator-side events.
HEADER_FIELDS = ("v", "ts", "ev", "shard")

#: Required payload fields (name -> allowed types) per event type.
#: Extra payload fields are allowed (forward compatibility); missing
#: required fields are schema violations.
EVENT_SCHEMA: dict[str, dict[str, tuple]] = {
    "run_start": {
        "oracle": (str,),
        "workers": (int,),
        "seed": (int,),
    },
    "run_finish": {
        "tests": (int,),
        "reports": (int,),
        "wall_s": (float, int),
    },
    "shard_start": {
        "seed": (int,),
        "round": (int,),
    },
    "shard_finish": {
        "tests": (int,),
        "skipped": (int,),
        "reports": (int,),
        "round": (int,),
        "phases": (dict,),
        "cache": (dict,),
    },
    "round_barrier": {
        "round": (int,),
        "rounds": (int,),
        "saturated": (int,),
        "plans": (int,),
    },
    "state": {
        "states": (int,),
        "tests": (int,),
        "cache": (dict,),
    },
    "test_start": {
        "n": (int,),
    },
    "test_finish": {
        "n": (int,),
        "status": (str,),
        "qok": (int,),
        "qerr": (int,),
    },
    "bug_found": {
        "kind": (str,),
        "oracle": (str,),
        "faults": (list,),
    },
    "cluster_new": {
        "fingerprint": (str,),
        "kind": (str,),
    },
    "cluster_saturated": {
        "fault": (str,),
    },
}


def format_record(
    ev: str, ts: float, shard: "int | None", payload: dict
) -> str:
    """One canonical JSONL line: header fields first, payload keys
    sorted.  This function is the byte-stability contract."""
    record = {
        "v": TRACE_SCHEMA_VERSION,
        "ts": round(ts, 6),
        "ev": ev,
        "shard": shard,
    }
    for key in sorted(payload):
        record[key] = payload[key]
    return json.dumps(record, separators=(", ", ": "))


def validate_record(record: dict) -> "str | None":
    """None when *record* is schema-valid, else a human-readable
    violation.  Unknown events and extra fields pass (see the schema
    versioning policy)."""
    for name in HEADER_FIELDS:
        if name not in record:
            return f"missing header field {name!r}"
    if record["v"] != TRACE_SCHEMA_VERSION:
        return (
            f"schema version {record['v']!r} != {TRACE_SCHEMA_VERSION}"
        )
    if not isinstance(record["ts"], (int, float)):
        return f"ts must be a number, got {type(record['ts']).__name__}"
    if record["shard"] is not None and not isinstance(record["shard"], int):
        return f"shard must be int or null, got {record['shard']!r}"
    ev = record["ev"]
    if not isinstance(ev, str):
        return f"ev must be a string, got {ev!r}"
    spec = EVENT_SCHEMA.get(ev)
    if spec is None:
        return None  # unknown event types are forward-compatible
    for name, types in spec.items():
        if name not in record:
            return f"{ev}: missing required field {name!r}"
        if not isinstance(record[name], types) or isinstance(
            record[name], bool
        ) and bool not in types:
            return (
                f"{ev}: field {name!r} has type "
                f"{type(record[name]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    return None


class TraceWriter:
    """Buffered per-worker JSONL sink.

    Never shared across processes: each worker opens its own part file
    in append mode.  ``emit`` is non-blocking on the hot path -- it
    appends a formatted line to a list; disk I/O happens once per
    *buffer_size* events and on :meth:`close`.
    """

    def __init__(
        self,
        path: str,
        shard: "int | None" = None,
        buffer_size: int = 256,
    ) -> None:
        self.path = path
        self.shard = shard
        self.buffer_size = max(1, buffer_size)
        self._lines: list[str] = []
        self._closed = False

    def emit(self, ev: str, **payload) -> None:
        if self._closed:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._lines.append(
            format_record(ev, time.time(), self.shard, payload) + "\n"
        )
        if len(self._lines) >= self.buffer_size:
            self.flush()

    def flush(self) -> None:
        if not self._lines:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.writelines(self._lines)
        self._lines.clear()

    def close(self) -> None:
        self.flush()
        self._closed = True


def read_trace(path: str) -> list[dict]:
    """Records of a trace file, as a list so callers can fold it more
    than once (malformed JSON raises ValueError with the offending
    line number)."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc}"
                ) from None
    return records


def shard_part_path(trace_path: str, shard_index: int) -> str:
    """Where shard *shard_index* of a fleet writes its part file."""
    return f"{trace_path}.shard{shard_index}.part"


def merge_trace_files(
    out_path: str,
    part_paths: Iterable[str],
    extra_lines: "Iterable[str] | None" = None,
    remove_parts: bool = True,
) -> int:
    """Merge per-worker part files (plus the orchestrator's own
    already-formatted *extra_lines*) into one trace sorted by
    timestamp, stably -- records with equal timestamps keep their
    per-writer order.  Returns the number of records written."""
    records: list[tuple[float, int, str]] = []
    seq = 0
    for line in extra_lines or ():
        records.append((json.loads(line)["ts"], seq, line))
        seq += 1
    for path in part_paths:
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                records.append((json.loads(line)["ts"], seq, line))
                seq += 1
    records.sort(key=lambda rec: (rec[0], rec[1]))
    with open(out_path, "w", encoding="utf-8") as fh:
        for _, _, line in records:
            fh.write(line if line.endswith("\n") else line + "\n")
    if remove_parts:
        for path in part_paths:
            if os.path.exists(path):
                os.remove(path)
    return len(records)
