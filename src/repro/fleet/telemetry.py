"""Fleet-side telemetry: one bundle for progress lines, the live
status endpoint, and the orchestrator's half of the trace stream.

The orchestrator's collector builds one
:class:`~repro.obs.status.ProgressSnapshot` per progress message;
:class:`FleetTelemetry` prints that record and publishes its
:meth:`~repro.obs.status.ProgressSnapshot.to_status` form on a
:class:`~repro.obs.status.StatusBoard` behind a stdlib HTTP server
(``--status-port``), and keeps an orchestrator-side trace record list
merged with the workers' part files at the end (``--trace``).  The
final snapshot's counters also go into the trace's ``run_finish``
record, so ``coddtest top`` of a finished trace shows what the
endpoint showed.  Nothing here feeds back into campaign control flow,
so a fleet with every surface enabled is bit-identical to a silent one
(gated by ``tests/obs/test_fleet_obs.py`` and the obs-smoke CI job).

Import direction: ``repro.fleet`` depends on ``repro.obs``, never the
reverse -- the obs layer stays usable from serial campaigns and
offline tools alike.
"""

from __future__ import annotations

import os
import sys
import time

from repro.fleet.progress import ProgressPrinter
from repro.obs.status import ProgressSnapshot, StatusBoard, StatusServer
from repro.obs.trace import (
    format_record,
    merge_trace_files,
    shard_part_path,
)


class FleetTelemetry:
    """Bundles every optional observability surface of one fleet run.

    Only the progress *printer* is given here.  The trace path and the
    status port are the fleet config's ``trace_path`` and
    ``status_port``, read by :meth:`open`.

    Lifecycle: :meth:`open` (clear stale parts, start the server, emit
    ``run_start``), then :meth:`progress` from the orchestrator's
    collector, :meth:`finish` once with the final snapshot, and
    :meth:`close` in a ``finally`` (idempotent; merges whatever part
    files exist even when the run died mid-way).
    """

    def __init__(self, printer: "ProgressPrinter | None" = None) -> None:
        self.printer = printer
        #: The fleet config :meth:`open` binds.
        self.config = None
        self.board: "StatusBoard | None" = None
        self.server: "StatusServer | None" = None
        #: Orchestrator-side records, already formatted; merged with the
        #: worker part files by :meth:`close`.
        self._lines: list[str] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def open(self, config) -> "FleetTelemetry":
        """Bind to one fleet *config*: take its trace path and status
        port, clear stale part files, start the status server, emit
        ``run_start``."""
        self.config = config
        if config.trace_path is not None:
            # Part files are opened append-mode by the workers (guided
            # rounds accumulate), so leftovers of a previous run with
            # the same path must go first.
            for index in range(config.workers):
                part = shard_part_path(config.trace_path, index)
                if os.path.exists(part):
                    os.remove(part)
        if config.status_port is not None:
            self.board = StatusBoard()
            self.server = StatusServer(self.board, port=config.status_port)
            self.server.start()
            # The bound port is run-specific (--status-port 0 picks a
            # free one), so it goes to the progress stream, never
            # stdout -- and to stderr without a printer (--quiet), or
            # nobody would learn the port.
            stream = (
                sys.stderr if self.printer is None else self.printer.stream
            )
            stream.write(f"status endpoint: {self.server.url}\n")
            stream.flush()
        self.emit(
            "run_start",
            oracle=config.oracle,
            workers=config.workers,
            seed=config.seed,
        )
        return self

    @property
    def url(self) -> "str | None":
        """The live status endpoint URL (None when disabled)."""
        return None if self.server is None else self.server.url

    # -- orchestrator-side trace events --------------------------------------

    def emit(self, ev: str, **payload) -> None:
        """Record one orchestrator-side trace event (no-op untraced)."""
        if self.config.trace_path is None:
            return
        self._lines.append(
            format_record(ev, time.time(), None, payload) + "\n"
        )

    # -- snapshot fan-out ----------------------------------------------------

    def progress(self, snap: ProgressSnapshot) -> None:
        """A live snapshot: rate-limited progress line, fresh status."""
        if self.printer is not None:
            self.printer.maybe_print(snap)
        if self.board is not None:
            self.board.publish(snap.to_status())

    def finish(self, snap: ProgressSnapshot) -> None:
        """The done snapshot: final progress line, ``run_finish`` record
        (with the counters a trace cannot rebuild from its shard
        records), terminal status."""
        if self.printer is not None:
            self.printer.final(snap)
        self.emit(
            "run_finish",
            tests=snap.tests,
            reports=snap.reports,
            wall_s=round(snap.elapsed, 6),
            unique_plans=snap.unique_plans,
            unique_reports=snap.unique_reports,
            clusters=snap.clusters,
        )
        if self.board is not None:
            self.board.publish(snap.to_status())

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Merge the trace (orchestrator lines + worker part files) and
        stop the status server.  Idempotent, safe on error paths."""
        if self._closed:
            return
        self._closed = True
        trace_path = self.config.trace_path
        if trace_path is not None:
            parts = [
                shard_part_path(trace_path, index)
                for index in range(self.config.workers)
            ]
            merge_trace_files(trace_path, parts, self._lines)
            self._lines.clear()
        if self.server is not None:
            self.server.stop()
            self.server = None
