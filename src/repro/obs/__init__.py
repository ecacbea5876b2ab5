"""Unified telemetry: traces, phase profiling, live status.

The observability layer of the reproduction (ROADMAP
"fuzzing-as-a-service"), with one hard contract inherited from the perf
layer: **telemetry-on and telemetry-off runs are bit-identical on every
deterministic output** -- stats signatures, corpus bytes, rendered
tables.  Wall-clock measurements exist only inside this package
(phase timers, trace timestamps, status snapshots) and never feed back into
generation, scheduling, or results.

Three building blocks:

* :mod:`repro.obs.phases`  -- :class:`PhaseProfiler`, scoped timers
  around the generate / parse / execute / compare hot-path phases;
* :mod:`repro.obs.trace`   -- schema-versioned JSONL trace events,
  held in memory by each shard and written to one file by the fleet's
  orchestrator as they arrive;
* :mod:`repro.obs.status`  -- :class:`ProgressSnapshot`, the one
  fleet snapshot record, and the live JSON status endpoint that serves
  it (``coddtest fleet --status-port N``), plus
  :mod:`repro.obs.report`'s offline ``trace report`` / ``top`` views,
  which fold a trace into the same record.
"""

from repro.obs.phases import (
    PHASES,
    PhaseProfiler,
    format_phase_breakdown,
    merge_phase_totals,
)
from repro.obs.report import (
    render_phase_table,
    render_top_frame,
    render_trace_report,
    snapshot_from_trace,
    summarize_trace,
)
from repro.obs.status import (
    STATUS_SCHEMA_VERSION,
    StatusBoard,
    StatusServer,
    fetch_status,
)
from repro.obs.trace import (
    EVENT_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    format_record,
    read_trace,
    validate_record,
)

__all__ = [
    "EVENT_SCHEMA",
    "PHASES",
    "PhaseProfiler",
    "STATUS_SCHEMA_VERSION",
    "StatusBoard",
    "StatusServer",
    "TRACE_SCHEMA_VERSION",
    "TraceWriter",
    "fetch_status",
    "format_phase_breakdown",
    "format_record",
    "merge_phase_totals",
    "read_trace",
    "render_phase_table",
    "render_top_frame",
    "render_trace_report",
    "snapshot_from_trace",
    "summarize_trace",
    "validate_record",
]
