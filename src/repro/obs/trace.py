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

* ``run_start`` / ``run_finish``   -- one fleet invocation; the finish
  record is the final status snapshot's counters: ``reports`` (every
  report the shards filed), plus those a trace cannot rebuild from its
  shard records (``unique_plans``, the merged set-union;
  ``unique_reports`` and ``clusters``, null without a corpus),
* ``shard_start`` / ``shard_finish`` -- one shard's round; the
  orchestrator writes the finish record when the shard's result
  arrives, with the shard's cache stats (its ddmin jobs' included,
  wherever they ran) and per-phase time breakdown,
* ``progress``                     -- the live counters of shard
  ``for_shard`` in its round (tests, unique plans, cache hits and
  misses, its ddmin jobs' included), written by the orchestrator after
  each message that changes them, so a running fleet's trace shows
  them; the header names no shard, since a job another worker reduced
  changes them too,
* ``reduce``                       -- one ddmin job: the ``finder``
  shard that filed the report (the header's shard reduced it), its
  fingerprint, statements before and after (``reduced``, null when
  replay cannot check it), distinct ``candidates`` replayed, seconds,
* ``round_barrier``                -- guided snapshot-exchange barrier,
* ``state``                        -- one generated database state,
  carrying the *cumulative* cache hit/miss counters (per-lookup events
  would dwarf the trace; per-state granularity bounds the volume while
  keeping the hit-rate trajectory reconstructable),
* ``test_start`` / ``test_finish`` -- one oracle test,
* ``bug_found``                    -- a report was filed,
* ``cluster_new`` / ``cluster_saturated`` -- corpus triage transitions.

One process writes the trace file: the fleet's orchestrator.  A shard
keeps its records in memory (:class:`TraceWriter`, whose ``emit`` only
formats and appends a line, never touching disk or a lock) and hands
them over with each progress message; the orchestrator appends each
message's lines and its own events to the file and flushes after every
message, so the file is a live record of the run from its first line.
Records reach the file in batches, so :func:`read_trace` returns them
sorted by timestamp.

Schema versioning policy: ``TRACE_SCHEMA_VERSION`` bumps whenever a
field is removed or changes meaning/type, or header ordering changes;
*adding* a new event type or a new payload field is backward-compatible
and does not bump (readers must ignore unknown fields and events).
Golden tests in ``tests/obs/test_trace.py`` enforce the byte layout.
"""

from __future__ import annotations

import json
import time

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
    "progress": {
        "for_shard": (int,),
        "tests": (int,),
        "unique_plans": (int,),
        "cache_hits": (int,),
        "cache_misses": (int,),
    },
    "reduce": {
        "finder": (int,),
        "fingerprint": (str,),
        "statements": (int,),
        "reduced": (int, type(None)),
        "candidates": (int,),
        "seconds": (float, int),
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
    """A shard's trace records, held in memory until :meth:`drain`
    hands them on: ``emit`` formats one line and appends it to a list.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self._lines: list[str] = []

    def emit(self, ev: str, **payload) -> None:
        self._lines.append(
            format_record(ev, time.time(), self.shard, payload) + "\n"
        )

    def drain(self) -> list[str]:
        """The lines emitted since the last drain, oldest first."""
        lines, self._lines = self._lines, []
        return lines


def read_trace(path: str) -> list[dict]:
    """Records of a trace file sorted by timestamp, records with equal
    timestamps in file order, as a list so callers can fold it more
    than once.

    A last line with no newline yet is one the fleet is still writing,
    and is left out; any other line that does not decode raises
    ValueError with its line number."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc}"
                ) from None
    records.sort(key=_timestamp)
    return records


def _timestamp(record) -> float:
    """A record's ``ts``; a record without a numeric one sorts first
    (the readers count it as invalid)."""
    ts = record.get("ts") if isinstance(record, dict) else None
    return ts if isinstance(ts, (int, float)) else float("-inf")
