"""obs-smoke: end-to-end check of the observability surfaces.

Runs one fixed-seed fleet three ways and checks the telemetry contract
from the outside, the way a user would hit it:

1. **Silent baseline** -- no trace, no status server; records the
   merged campaign signature and corpus fingerprints.
2. **Fully instrumented run** -- same config with ``--trace`` and a
   live ``--status-port`` endpoint, polled concurrently over HTTP
   while the fleet runs.  Must be bit-identical to the baseline on
   every deterministic output (the telemetry-off/on promise of
   :mod:`repro.obs`).  ``http.server`` must be absent from
   ``sys.modules`` until this run's endpoint starts, and present once
   it has served a poll: only a run that serves status loads the HTTP
   stack.  The trace path holds an earlier run's trace, and at every
   live progress snapshot the trace must be the only file in its
   directory and fold into this run, running, with the tests and
   reports the snapshot shows.
3. **Offline consumers** -- the finished trace must validate against the
   event schema (``tools/trace_check.py``), render a deterministic
   ``coddtest trace report``, and fold into a ``top`` snapshot equal to
   the run's final status on every field not measured from wall-clock.
4. **A killed orchestrator** -- ``coddtest fleet --seconds 8 --workers
   2 --buggy --corpus ...`` is SIGKILLed 2 s in; its two workers must
   be gone within 5 s, not run on against a queue nobody reads.

Exit 1 on any violation.  CI runs this as the blocking obs-smoke
job; it is also a useful local one-shot (``PYTHONPATH=src python
tools/obs_smoke.py``).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.fleet import BugCorpus, FleetConfig, ProgressPrinter, run_fleet
from repro.fleet.telemetry import FleetTelemetry
from repro.obs import (
    fetch_status,
    read_trace,
    render_trace_report,
    snapshot_from_trace,
    summarize_trace,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from trace_check import check_file  # noqa: E402


def _signature(config: FleetConfig, **kwargs) -> dict:
    corpus = BugCorpus()
    result = run_fleet(config, corpus=corpus, **kwargs)
    return {
        "merged": result.merged.signature(),
        "corpus": sorted(corpus.entries),
        "arms": result.arm_schedules,
    }


def _timeless(status: dict) -> dict:
    """*status* without the fields measured from wall-clock."""
    out = {
        k: v
        for k, v in status.items()
        if k not in ("elapsed_s", "tests_per_second")
    }
    out["shards"] = {
        index: {k: v for k, v in row.items() if k != "age_s"}
        for index, row in status.get("shards", {}).items()
    }
    return out


def _poll_status(telemetry: FleetTelemetry, snapshots: list) -> None:
    """Poll the live endpoint until the server goes away."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        url = telemetry.url
        if url is None:
            if telemetry.server is None and snapshots:
                return  # server came and went
            time.sleep(0.01)
            continue
        try:
            snapshots.append(fetch_status(url, timeout=2.0))
        except OSError:
            time.sleep(0.01)
            continue
        if snapshots[-1].get("state") == "done":
            return
        time.sleep(0.05)


class _LiveTraceCheck(FleetTelemetry):
    """Reads the trace back at every live progress snapshot and keeps
    what disagrees with the run."""

    def __init__(self, printer: ProgressPrinter) -> None:
        super().__init__(printer)
        self.reads = 0
        self.problems: list[str] = []

    def progress(self, snap) -> None:
        super().progress(snap)
        path = self.config.trace_path
        self.reads += 1
        files = os.listdir(os.path.dirname(path))
        if files != [os.path.basename(path)]:
            self.problems.append(f"trace directory holds {sorted(files)}")
        try:
            records = read_trace(path)
        except OSError as exc:
            self.problems.append(f"trace unreadable mid-run: {exc}")
            return
        live = snapshot_from_trace(records)
        starts = [r["ev"] for r in records].count("run_start")
        seen = (live["seed"], live["state"], live["tests"], live["reports"])
        want = (self.config.seed, "running", snap.tests, snap.reports)
        if starts != 1 or seen != want or not snap.tests > 0:
            self.problems.append(
                f"live trace reads (seed, state, tests, reports) = {seen} "
                f"over {starts} run_start record(s), expected {want}"
            )


def _alive(pid: int) -> bool:
    """Whether process *pid* runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _orphans_after_kill(tmp: str) -> "tuple[list[int], list[int]]":
    """SIGKILL a 2-worker CLI fleet's orchestrator 2 s in.  Returns its
    worker pids and those still running 5 s after the kill."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "fleet", "--seconds", "8",
            "--workers", "2", "--buggy", "--quiet",
            "--corpus", os.path.join(tmp, "killed.jsonl"),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        time.sleep(2.0)
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        with open(children, encoding="ascii") as fh:
            workers = [int(pid) for pid in fh.read().split()]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        return workers, [pid for pid in workers if _alive(pid)]
    finally:
        for pid in [proc.pid, *workers]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=int, default=600)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"[obs-smoke] {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def config(**kwargs) -> FleetConfig:
        return FleetConfig(
            oracle="coddtest",
            buggy=True,
            workers=args.workers,
            seed=args.seed,
            n_tests=args.tests,
            use_cache=True,
            **kwargs,
        )

    baseline = _signature(config())
    print(
        f"[obs-smoke] baseline: {args.workers}-worker fleet, "
        f"{args.tests} tests, {len(baseline['corpus'])} corpus entries"
    )

    # The status server imports the HTTP stack itself: a run without
    # an endpoint, the baseline included, never loads it.
    check(
        "http.server" not in sys.modules,
        "http.server not loaded before the status server starts",
    )

    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as tmp:
        trace_path = os.path.join(tmp, "run.trace.jsonl")
        # An earlier run at the same path, which the next must replace.
        run_fleet(
            FleetConfig(seed=args.seed + 1, n_tests=50, trace_path=trace_path)
        )
        traced_config = config(trace_path=trace_path, status_port=0)
        telemetry = _LiveTraceCheck(ProgressPrinter(interval=0.2))
        snapshots: list[dict] = []
        poller = threading.Thread(
            target=_poll_status, args=(telemetry, snapshots), daemon=True
        )
        poller.start()
        instrumented = _signature(traced_config, telemetry=telemetry)
        poller.join(timeout=10.0)

        check(
            instrumented == baseline,
            "traced+status run bit-identical to silent run",
        )
        check(len(snapshots) > 0, f"live endpoint polled ({len(snapshots)} snapshots)")
        for problem in telemetry.problems[:5]:
            print(f"[obs-smoke]   {problem}", file=sys.stderr)
        check(
            telemetry.reads > 0 and not telemetry.problems,
            "the trace is the live record of this run at each of "
            f"{telemetry.reads} progress snapshots",
        )
        check(
            "http.server" in sys.modules,
            "http.server loaded once the endpoint served a poll",
        )
        if snapshots:
            last = snapshots[-1]
            check(
                last.get("schema_version") == 1
                and last.get("workers") == args.workers
                and "shards" in last,
                "status snapshot carries the v1 schema",
            )

        records_n, invalid, errors = check_file(trace_path)
        for error in errors[:10]:
            print(f"[obs-smoke]   {error}", file=sys.stderr)
        check(invalid == 0 and records_n > 0, "trace validates against the event schema")

        records = read_trace(trace_path)
        summary = summarize_trace(records)
        check(
            summary["tests"] == baseline["merged"]["tests"],
            "trace test count matches the merged campaign signature",
        )
        check(
            set(summary["phases"]) >= {"generate", "parse", "execute"},
            "shard_finish records carry per-phase timings",
        )
        report_a = render_trace_report(records)
        report_b = render_trace_report(read_trace(trace_path))
        check(report_a == report_b, "trace report renders deterministically")
        # The board, not the poller: the poller may miss the done
        # snapshot.
        top = snapshot_from_trace(records)
        final = telemetry.board.snapshot()
        check(
            top["state"] == "done" and _timeless(top) == _timeless(final),
            "top of the trace equals the final status "
            "(all fields but elapsed_s, tests_per_second, age_s)",
        )

    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as tmp:
        workers, alive = _orphans_after_kill(tmp)
        check(
            len(workers) == 2 and not alive,
            f"workers {workers} of a SIGKILLed fleet exit within 5 s"
            + (f" ({alive} still running)" if alive else ""),
        )

    if failures:
        print(f"[obs-smoke] FAIL: {len(failures)} check(s)", file=sys.stderr)
        return 1
    print("[obs-smoke] OK: telemetry is observably on and semantically off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
