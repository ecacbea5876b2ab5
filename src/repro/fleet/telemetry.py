"""Fleet-side telemetry: one bundle for progress lines, the live
status endpoint, and the orchestrator's half of the trace stream.

The orchestrator already aggregates per-shard counters to print
progress lines; :class:`FleetTelemetry` fans that same data out to the
optional surfaces -- a :class:`~repro.obs.status.StatusBoard` behind a
stdlib HTTP server (``--status-port``) and an orchestrator-side trace
record list merged with the workers' part files at the end
(``--trace``).  Nothing here feeds back into campaign control flow, so
a fleet with every surface enabled is bit-identical to a silent one
(gated by ``tests/obs/test_fleet_obs.py`` and the obs-smoke CI job).

Import direction: ``repro.fleet`` depends on ``repro.obs``, never the
reverse -- the obs layer stays usable from serial campaigns and
offline tools alike.
"""

from __future__ import annotations

import os
import time

from repro.fleet.progress import ProgressPrinter, ProgressSnapshot
from repro.obs.status import StatusBoard, StatusServer, now_monotonic
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
    collection loop, :meth:`finish` once with the final snapshot, and
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
        self._round: "int | None" = None
        self._rounds: "int | None" = None
        self._last_seen: dict[int, float] = {}
        self._last_shards: dict[int, dict] = {}
        self._done: set[int] = set()
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
            if self.printer is not None:
                # The bound port is wall-clock-free but run-specific
                # (--status-port 0 picks a free one), so it goes to the
                # progress stream, never stdout.
                self.printer.stream.write(
                    f"status endpoint: {self.server.url}\n"
                )
                self.printer.stream.flush()
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

    def round_barrier(
        self, round_index: int, rounds: int, saturated: int, plans: int
    ) -> None:
        self._round, self._rounds = round_index + 1, rounds
        self.emit(
            "round_barrier",
            round=round_index,
            rounds=rounds,
            saturated=saturated,
            plans=plans,
        )

    def cluster_new(self, fingerprint: str, kind: str) -> None:
        self.emit("cluster_new", fingerprint=fingerprint, kind=kind)

    def cluster_saturated(self, fault: str) -> None:
        self.emit("cluster_saturated", fault=fault)

    # -- progress fan-out ----------------------------------------------------

    def progress(
        self,
        snap: ProgressSnapshot,
        shards: "dict[int, dict] | None" = None,
        done: "set[int] | None" = None,
    ) -> None:
        """One aggregation step: rate-limited progress line plus a fresh
        status snapshot.  *shards* maps shard index to its latest
        progress payload; *done* holds finished shard indexes."""
        snap.round, snap.rounds = self._round, self._rounds
        if self.printer is not None:
            self.printer.maybe_print(snap)
        if shards:
            self._last_shards = dict(shards)
        self._publish(
            snap, shards or self._last_shards, done or set(), state="running"
        )

    def finish(self, snap: ProgressSnapshot, merged, wall: float) -> None:
        """Final progress line, ``run_finish`` record, terminal status."""
        snap.round, snap.rounds = self._round, self._rounds
        if self.printer is not None:
            self.printer.final(snap)
        self.emit(
            "run_finish",
            tests=merged.tests,
            reports=len(merged.reports),
            wall_s=round(wall, 6),
        )
        self._done = set(range(self.config.workers))
        self._publish(snap, self._last_shards, self._done, state="done")

    def shard_seen(self, shard_index: int, done: bool = False) -> None:
        self._last_seen[shard_index] = now_monotonic()
        if done:
            self._done.add(shard_index)

    def _publish(
        self,
        snap: ProgressSnapshot,
        shards: "dict[int, dict]",
        done: "set[int]",
        state: str,
    ) -> None:
        if self.board is None:
            return
        now = now_monotonic()
        shard_view: dict[str, dict] = {}
        for index, payload in sorted(shards.items()):
            last = self._last_seen.get(index)
            shard_view[str(index)] = {
                "tests": int(payload.get("tests", 0)),
                "reports": int(payload.get("reports", 0)),
                "done": index in done or index in self._done,
                "age_s": round(now - last, 3) if last is not None else 0.0,
            }
        cache_total = snap.cache_hits + snap.cache_misses
        self.board.publish(
            {
                "state": state,
                "oracle": self.config.oracle,
                "workers": self.config.workers,
                "seed": self.config.seed,
                "elapsed_s": round(snap.elapsed, 3),
                "tests": snap.tests,
                "tests_per_second": round(snap.tests_per_second, 2),
                "qpt": round(snap.qpt, 3),
                "skipped": snap.skipped,
                "queries_ok": snap.queries_ok,
                "queries_err": snap.queries_err,
                "reports": snap.reports,
                "unique_reports": snap.unique_reports,
                "clusters": snap.clusters,
                "unique_plans": snap.unique_plans,
                "round": snap.round,
                "rounds": snap.rounds,
                "cache": {
                    "hits": snap.cache_hits,
                    "misses": snap.cache_misses,
                    "hit_rate": (
                        round(snap.cache_hits / cache_total, 4)
                        if cache_total
                        else 0.0
                    ),
                },
                "shards": shard_view,
            }
        )

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
