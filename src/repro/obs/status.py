"""Live fleet status: one snapshot record behind a stdlib HTTP endpoint.

:class:`ProgressSnapshot` is the fleet's one snapshot record.  The
orchestrator's collector builds it from the shards' progress messages;
the progress line prints it, :meth:`ProgressSnapshot.to_status` turns
it into the JSON that ``coddtest fleet --status-port N`` serves from a
:class:`StatusServer` (a daemon thread of the *orchestrator* process),
and :func:`repro.obs.report.snapshot_from_trace` folds a trace into the
same record for ``coddtest top``.  Nothing on the worker hot path ever
touches the server, so a fleet with the endpoint enabled stays
bit-identical to one without it.

Snapshot schema (``STATUS_SCHEMA_VERSION``)::

    {
      "schema_version": 1,
      "state": "running" | "done",
      "oracle": str, "workers": int, "seed": int,
      "elapsed_s": float, "tests": int, "tests_per_second": float,
      "qpt": float, "skipped": int, "queries_ok": int,
      "queries_err": int, "reports": int, "unique_reports": int|null,
      "clusters": int|null, "unique_plans": int,
      "round": int|null, "rounds": int|null,
      "cache": {"hits": int, "misses": int, "hit_rate": float},
      "shards": {"0": {"tests": int, "reports": int, "done": bool,
                        "age_s": float}, ...}
    }

Counters cover every round a fleet ran, fleet-wide and per shard, so
the shards' ``tests`` and ``reports`` sum to the fleet's.  ``reports``
counts every report the shards filed; when the fleet-wide
``max_reports`` cap stops the shards, the merged result keeps only the
first ``max_reports``.  While the fleet runs, ``unique_plans`` is the
*sum* of per-shard-round unique-plan counts -- an upper bound, since
shards and rounds may find the same fingerprint -- and ``clusters`` is
null.  The ``done`` snapshot carries the merged set-union of plans and
the corpus' triage cluster count.  ``unique_reports`` counts the
corpus fingerprints new to this run; it and ``clusters`` are null
without a corpus.  A finished trace folds into the same ``done``
snapshot.  ``age_s`` is seconds since the shard's last progress
message: the per-shard liveness signal.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: Bump when snapshot fields are removed or change meaning.
STATUS_SCHEMA_VERSION = 1


@dataclass
class ProgressSnapshot:
    """Fleet-wide counters at one instant; see the module docstring for
    what each field means while running and when done."""

    state: str = "running"
    oracle: str | None = None
    seed: int | None = None
    elapsed: float = 0.0
    workers: int = 1
    shards_done: int = 0
    tests: int = 0
    skipped: int = 0
    queries_ok: int = 0
    queries_err: int = 0
    reports: int = 0
    unique_reports: int | None = None  # None when no corpus is attached
    #: Root-cause clusters in the attached corpus (end-of-run triage);
    #: None when no corpus is attached or while the fleet is running.
    clusters: int | None = None
    #: Evaluation-cache counters summed across shards (0/0 when the
    #: fleet runs uncached).
    cache_hits: int = 0
    cache_misses: int = 0
    unique_plans: int = 0
    #: Guided-fleet round progress (1-based); None when unguided.
    round: int | None = None
    rounds: int | None = None
    #: Shard index -> ``{"tests", "reports", "done", "age_s"}``, the
    #: counters summed over every round the shard ran.
    shards: dict[int, dict] = field(default_factory=dict)

    @property
    def tests_per_second(self) -> float:
        return self.tests / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float | None:
        """Overall hit fraction; None when no cache lookups happened."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return None
        return self.cache_hits / total

    @property
    def qpt(self) -> float:
        return self.queries_ok / self.tests if self.tests else 0.0

    @property
    def dedup_rate(self) -> float | None:
        """Fraction of reports that were duplicates of a known bug."""
        if self.unique_reports is None or self.reports == 0:
            return None
        return 1.0 - self.unique_reports / self.reports

    def to_status(self) -> dict:
        """This snapshot in the status schema."""
        return {
            "schema_version": STATUS_SCHEMA_VERSION,
            "state": self.state,
            "oracle": self.oracle,
            "workers": self.workers,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed, 3),
            "tests": self.tests,
            "tests_per_second": round(self.tests_per_second, 2),
            "qpt": round(self.qpt, 3),
            "skipped": self.skipped,
            "queries_ok": self.queries_ok,
            "queries_err": self.queries_err,
            "reports": self.reports,
            "unique_reports": self.unique_reports,
            "clusters": self.clusters,
            "unique_plans": self.unique_plans,
            "round": self.round,
            "rounds": self.rounds,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hit_rate or 0.0, 4),
            },
            "shards": {
                str(index): dict(row)
                for index, row in sorted(self.shards.items())
            },
        }


class StatusBoard:
    """Thread-safe holder of the latest fleet snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshot: dict = {
            "schema_version": STATUS_SCHEMA_VERSION,
            "state": "starting",
        }

    def publish(self, snapshot: dict) -> None:
        """Replace the snapshot (the schema header is stamped here)."""
        with self._lock:
            self._snapshot = {
                "schema_version": STATUS_SCHEMA_VERSION,
                **snapshot,
            }

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._snapshot)


class StatusServer:
    """Stdlib HTTP server thread publishing a :class:`StatusBoard`.

    ``port=0`` binds an ephemeral port; :attr:`port` holds the bound
    one after :meth:`start`.  :mod:`http.server` (which loads ``ssl``
    and ``email``) is imported by :meth:`start`, so only a run that
    serves status pays for it.
    """

    def __init__(
        self, board: StatusBoard, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        self.board = board
        self.host = host
        self.port = port
        self._httpd: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self) -> int:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        board = self.board

        class _StatusHandler(BaseHTTPRequestHandler):
            """GET / (or /status) -> the board's snapshot as JSON."""

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path.split("?")[0] not in ("/", "/status"):
                    self.send_error(404, "unknown path (serve / or /status)")
                    return
                body = (
                    json.dumps(board.snapshot(), sort_keys=True) + "\n"
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # pragma: no cover
                """Silence per-request stderr logging."""

        self._httpd = ThreadingHTTPServer(
            (self.host, self.port), _StatusHandler
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="coddtest-status",
            daemon=True,
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "StatusServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def fetch_status(url: str, timeout: float = 5.0) -> dict:
    """GET a status snapshot from a running server (stdlib urllib)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as resp:  # noqa: S310 (http ok)
        return json.loads(resp.read().decode())
