"""Fleet-side telemetry: one bundle for progress lines, the live
status endpoint, and the trace file.

The orchestrator's collector builds one
:class:`~repro.obs.status.ProgressSnapshot` per progress message;
:class:`FleetTelemetry` prints that record and publishes its
:meth:`~repro.obs.status.ProgressSnapshot.to_status` form on a
:class:`~repro.obs.status.StatusBoard` behind a stdlib HTTP server
(``--status-port``).  It is also the trace's one writer (``--trace``):
it opens the file when the run starts, appends the trace lines each
progress message carries plus its own events, flushes after every
message, and closes the file at the end, so ``coddtest top --follow
PATH`` can watch the run.  The final snapshot's counters also go into
the trace's ``run_finish`` record, so ``coddtest top`` of a finished
trace shows what the endpoint showed.  Nothing here feeds back into
campaign control flow, so a fleet with every surface enabled is
bit-identical to a silent one (gated by ``tests/obs/test_fleet_obs.py``
and the obs-smoke CI job).

Import direction: ``repro.fleet`` depends on ``repro.obs``, never the
reverse -- the obs layer stays usable from serial campaigns and
offline tools alike.
"""

from __future__ import annotations

import sys
import time

from repro.fleet.progress import ProgressPrinter
from repro.obs.status import ProgressSnapshot, StatusBoard, StatusServer
from repro.obs.trace import format_record


class FleetTelemetry:
    """Bundles every optional observability surface of one fleet run.

    Only the progress *printer* is given here.  The trace path and the
    status port are the fleet config's ``trace_path`` and
    ``status_port``, read by :meth:`open`.

    Lifecycle: :meth:`open` (open the trace, start the server, emit
    ``run_start``), then :meth:`record` and :meth:`progress` for each
    progress message of the orchestrator's collector, :meth:`finish`
    once with the final snapshot, and :meth:`close` in a ``finally``
    (idempotent).
    """

    def __init__(self, printer: "ProgressPrinter | None" = None) -> None:
        self.printer = printer
        #: The fleet config :meth:`open` binds.
        self.config = None
        self.board: "StatusBoard | None" = None
        self.server: "StatusServer | None" = None
        #: The open trace file; None untraced or once closed.
        self._trace = None

    # -- lifecycle -----------------------------------------------------------

    def open(self, config) -> "FleetTelemetry":
        """Bind to one fleet *config*: open its trace path for writing
        (an earlier file is truncated, and an unwritable path fails
        here, before any shard starts), start the status server, emit
        ``run_start``."""
        self.config = config
        if config.trace_path is not None:
            self._trace = open(config.trace_path, "w", encoding="utf-8")
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
        self._flush()
        return self

    @property
    def url(self) -> "str | None":
        """The live status endpoint URL (None when disabled)."""
        return None if self.server is None else self.server.url

    # -- the trace -----------------------------------------------------------

    def emit(self, ev: str, shard: "int | None" = None, **payload) -> None:
        """Record one trace event of the orchestrator, about *shard* if
        given (no-op untraced)."""
        if self._trace is not None:
            self._trace.write(
                format_record(ev, time.time(), shard, payload) + "\n"
            )

    def record(self, lines: "list[str]") -> None:
        """Append the trace lines one shard message carried."""
        if self._trace is not None:
            self._trace.writelines(lines)

    def _flush(self) -> None:
        if self._trace is not None:
            self._trace.flush()

    # -- snapshot fan-out ----------------------------------------------------

    def progress(self, snap: ProgressSnapshot) -> None:
        """A live snapshot, one per progress message: the trace goes to
        disk, then the rate-limited progress line and a fresh status."""
        self._flush()
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
        """Close the trace and stop the status server.  Idempotent,
        safe on error paths."""
        if self._trace is not None:
            self._trace.close()
            self._trace = None
        if self.server is not None:
            self.server.stop()
            self.server = None
