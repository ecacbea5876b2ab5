"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py '<json spec>'`` with the keys
``workload``, ``seed``, ``tests``, ``trace``, ``ship_dir`` (where
traced fleet workers leave their spans) and ``spans_out`` (where a
traced run writes all of them).  The
process pays what a ``coddtest`` invocation pays -- imports, registry
discovery, probing, construction, worker fork -- then runs the workload
once.  Every process that enters ``Campaign.run`` first writes
``campaign_start <perf_counter>`` to stdout, which lets the parent time
set-up to the first test, and every process writes
``fault_found <fault id> <perf_counter>`` the first time a bug report
implicates a fault, which lets the parent time detection.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _configs(workload: str, seed: int, tests: int):
    """``(FleetConfig, corpus or None)`` of *workload*."""
    from repro.fleet import BugCorpus, FleetConfig
    from repro.fleet.orchestrator import make_replay_reducer

    if workload == "hunt":
        return FleetConfig(
            oracle="coddtest", buggy=True, workers=1, seed=seed, n_tests=tests
        ), None
    if workload == "diff":
        return FleetConfig(
            oracle="differential",
            backend_pair=("minidb", "sqlite3"),
            buggy=True,
            workers=1,
            seed=seed,
            n_tests=tests,
        ), None
    if workload == "fleet":
        config = FleetConfig(
            oracle="coddtest",
            buggy=True,
            workers=2,
            guidance="plan-coverage",
            seed=seed,
            n_tests=tests,
        )
        return config, BugCorpus(reduce_fn=make_replay_reducer(config))
    raise ValueError(f"unknown workload {workload!r}")


def _install_markers(tracer, ship_dir: str) -> None:
    """Mark each process' first campaign start and the first report of
    each injected fault it sees; ship a traced worker's spans when its
    campaign returns."""
    from repro.oracles_base import Oracle
    from repro.runner.campaign import Campaign

    run = Campaign.run
    run_one = Oracle.run_one
    started = set()
    found = set()

    @functools.wraps(run)
    def hooked(self, *args, **kwargs):
        pid = os.getpid()
        if pid not in started:
            started.add(pid)
            os.write(1, f"campaign_start {time.perf_counter()!r}\n".encode())
        try:
            return run(self, *args, **kwargs)
        finally:
            if tracer is not None and tracer.is_worker():
                tracer.ship(ship_dir)

    @functools.wraps(run_one)
    def watched(self):
        outcome = run_one(self)
        if outcome.status == "bug" and outcome.report is not None:
            for fault in sorted(outcome.report.fired_faults - found):
                found.add(fault)
                os.write(1, f"fault_found {fault} {time.perf_counter()!r}\n".encode())
        return outcome

    Campaign.run = hooked
    Oracle.run_one = watched


def _peak_rss_kib() -> int:
    """Peak RSS of this process and its waited-for workers.  Linux
    carries ``ru_maxrss`` of the spawning process across ``execve``, so
    this process' own peak is read from ``VmHWM`` instead."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: "list[str]") -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")

    tracer = None
    if spec["trace"]:
        import benchspans

        tracer = benchspans.Tracer()
        tracer.install()
    _install_markers(tracer, spec["ship_dir"])

    from repro.fleet import run_fleet
    from repro.triage import replay

    config, corpus = _configs(spec["workload"], spec["seed"], spec["tests"])
    clock = time.perf_counter
    start = clock()
    result = run_fleet(config, corpus=corpus)
    fleet_end = clock()
    verdicts = replay.replay_clusters(result.clusters) if corpus is not None else {}
    end = clock()

    merged = result.merged
    witness = {"merged": merged.signature()}
    if corpus is not None:
        witness["corpus"] = sorted(corpus.entries)
        witness["arms"] = result.arm_schedules
        witness["verdicts"] = {cid: v.status for cid, v in sorted(verdicts.items())}
    digest = hashlib.sha256(
        json.dumps(witness, sort_keys=True).encode()
    ).hexdigest()
    statuses: dict = {}
    for verdict in verdicts.values():
        statuses[verdict.status] = statuses.get(verdict.status, 0) + 1

    out = {
        "start": start,
        "wall": end - start,
        "tests": merged.tests,
        "skipped": merged.skipped,
        "plans": len(merged.unique_plans),
        "faults": sorted(merged.detected_fault_ids),
        "verdicts": statuses,
        "witness": digest,
        "peak_rss_kib": _peak_rss_kib(),
    }
    if tracer is not None:
        payloads = [tracer.payload()] + benchspans.read_shipped(spec["ship_dir"])
        out["layers"] = benchspans.layer_metrics(
            payloads, (start, end), (start, fleet_end)
        )
        benchspans.write_spans(spec["spans_out"], payloads)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
