"""perf-smoke: the blocking CI gate for the perf-layer contract.

Two duties:

1. **Correctness gates** -- run fixed-seed campaigns over every cached
   code path (single-engine hunt with injected faults, cross-backend
   differential, plan-coverage-guided fleet, a guided fleet whose
   shards reduce its bugs on their campaign's cache, and TLP and DQE
   fleets) as shipped and cache-off, and fail (exit 1) unless both
   produced identical deterministic campaign signatures, corpus
   fingerprints, guided arm schedules, reduced witnesses and replay
   verdicts.  This is the bit-identity promise of :mod:`repro.perf`,
   checked end to end on every push.  Campaigns use only the parse
   memo; the reducing-fleet gate is the one that exercises the
   statement memo, which serves ddmin's candidate replays alone.  Only
   the MiniDB adapter caches, so the differential gate checks the
   MiniDB primary's parse memo; the sqlite3 secondary has none.  The
   shipped hunt, TLP and DQE runs also count their parse-memo misses by
   leading keyword and fail on any SELECT, WITH, INSERT, UPDATE or
   DELETE: the generators and oracles build those as ASTs and prime the
   memo, so only DDL should reach the parser, and a miss means a code
   path renders SQL without handing its AST along.
2. **Benchmark record** -- once the gates pass, run the repository
   benchmark (``perfbench/run.py``) once for each workload that
   ``BENCHMARK.json`` names, for its ``run_seconds`` with ``--trace 0``,
   and append one record to the ``history`` of ``BENCH_perf.json``:
   perfbench's provenance (commit, dirty flag, source digest, machine),
   a timestamp, and each workload's result line (``correct``,
   ``attempted``, ``failed`` and the end-to-end metrics).  Earlier
   records stay as written.  A perfbench run that is incorrect or exits
   non-zero fails perf-smoke, and nothing is appended.

Speeds are recorded, not asserted: shared CI hardware is noisy.

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--tests N] [--seed S] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter

import repro.perf.cache as cache_module
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.triage.replay import replay_clusters

#: Layout of the records this script appends to the ``history`` of
#: BENCH_perf.json.  v4 records one perfbench run per workload; v2 and
#: v3 records, kept as written, hold the fig2 cache sweep that earlier
#: versions of this script measured.
RECORD_SCHEMA_VERSION = 4

#: The repo root, regardless of the cwd the smoke run was launched
#: from, so CI and local runs update one file.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROVENANCE_PREFIX = "perfbench provenance "


def _fleet_signature(config: FleetConfig, reduce: bool = False) -> dict:
    """Deterministic witness of one fleet run: merged campaign
    signature, sorted corpus fingerprints, and (guided) arm schedules.
    A reducing run adds every entry's reduced witness and the replay
    verdict of every triage cluster (triage replays on its own parse
    memo either way)."""
    corpus = BugCorpus(reduce_fn=make_replay_reducer(config) if reduce else None)
    result = run_fleet(config, corpus=corpus)
    witness = {
        "merged": result.merged.signature(),
        "corpus": sorted(corpus.entries),
        "arms": result.arm_schedules,
    }
    if reduce:
        witness["reduced"] = {
            fp: entry.reduced_statements
            for fp, entry in sorted(corpus.entries.items())
        }
        verdicts = replay_clusters(result.clusters)
        witness["verdicts"] = {
            cid: (v.status, v.witness) for cid, v in sorted(verdicts.items())
        }
    return witness


#: Leading keywords of the statements the generators and oracles prime
#: into the parse memo; a parse-memo miss on one of them is a gate
#: failure.
_PRIMED_KEYWORDS = ("SELECT", "WITH", "INSERT", "UPDATE", "DELETE")


def _count_parse_misses(run):
    """``(run(), misses)``: *misses* counts the parse-memo misses of
    *run* by leading keyword, in forked fleet workers too -- each miss
    appends its keyword to a file the workers inherit the path of."""
    fd, path = tempfile.mkstemp(prefix="perf-smoke-misses-")
    os.close(fd)
    parse = cache_module.parse_statement

    def counted(sql: str):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(sql.split(None, 1)[0].upper() + "\n")
        return parse(sql)

    cache_module.parse_statement = counted
    try:
        result = run()
    finally:
        cache_module.parse_statement = parse
    with open(path, encoding="utf-8") as fh:
        misses = Counter(fh.read().split())
    os.remove(path)
    return result, misses


def _gate(
    name: str, make_config, reduce: bool = False, count_misses: bool = False
) -> bool:
    """Run one workload as shipped and cache-off and require identical
    signatures.  *make_config* takes ``use_cache``.  With
    *count_misses*, the shipped run's parse-memo misses must all be
    DDL.  True when the gate passes."""
    if count_misses:
        shipped, misses = _count_parse_misses(
            lambda: _fleet_signature(make_config(True), reduce)
        )
    else:
        shipped = _fleet_signature(make_config(True), reduce)
    reference = _fleet_signature(make_config(False), reduce)
    identical = shipped == reference
    status = "identical" if identical else "MISMATCH"
    print(f"[perf-smoke] {name:20s} shipped vs cache-off: {status}")
    if not identical:
        for key in shipped:
            if shipped[key] != reference[key]:
                print(f"  shipped differs from cache-off in {key!r}:")
                print(f"    shipped: {str(shipped[key])[:300]}")
                print(f"    cache-off: {str(reference[key])[:300]}")
    if not count_misses:
        return identical
    counts = ", ".join(f"{k} {n}" for k, n in sorted(misses.items()))
    print(f"[perf-smoke] {name:20s} parse-memo misses: {counts or 'none'}")
    if not misses:
        # DDL always misses: no count means the counter never ran.
        print("  no parse-memo miss was counted; the count is broken")
        return False
    unprimed = sum(misses[keyword] for keyword in _PRIMED_KEYWORDS)
    if unprimed:
        print(
            f"  {unprimed} {'/'.join(_PRIMED_KEYWORDS)} miss(es): a code "
            "path renders SQL without priming the parse memo"
        )
    return identical and not unprimed


# ---------------------------------------------------------------------------
# The BENCH_perf.json record
# ---------------------------------------------------------------------------


def _perfbench(
    command: "list[str]", workload: str, seed: int, seconds
) -> "tuple[int, str]":
    """``(exit code, stdout)`` of one perfbench run; its stdout is
    echoed, its stderr passes through."""
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    print(f"[perf-smoke] {' '.join(argv)}", flush=True)
    proc = subprocess.run(argv, cwd=_REPO_ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    return proc.returncode, proc.stdout


def _record(runs: "dict[str, tuple[int, str]]") -> "dict | None":
    """Provenance and result lines of perfbench *runs*, or None when a
    run failed or the runs measured different trees."""
    provenance = None
    results = {}
    for workload, (code, stdout) in runs.items():
        lines = stdout.splitlines()
        infos = [
            json.loads(line[len(_PROVENANCE_PREFIX):])
            for line in lines
            if line.startswith(_PROVENANCE_PREFIX)
        ]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        if code != 0 or len(infos) != 1 or result.get("correct") is not True:
            print(
                f"[perf-smoke] perfbench {workload} failed: exit code {code}, "
                f"correct: {result.get('correct')}"
            )
            return None
        if provenance not in (None, infos[0]):
            print(f"[perf-smoke] perfbench {workload} measured another tree")
            return None
        provenance = infos[0]
        results[workload] = result
    return {"provenance": provenance, "workloads": results}


def append_record(
    path: str, runs: "dict[str, tuple[int, str]]", seed: int, seconds
) -> bool:
    """Append one record of perfbench *runs* (workload -> ``(exit code,
    stdout)``, each run with *seed* and *seconds*) to the ``history`` in
    *path*, which is created when missing.  False, and *path* left as it
    was, when a run exited non-zero, printed no provenance or result
    line, or was not correct, or when the runs measured different
    trees.  The file is rewritten in one layout, so earlier records keep
    their bytes."""
    measured = _record(runs)
    if measured is None:
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)["history"]
    except FileNotFoundError:
        history = []
    history.append(
        {
            **measured["provenance"],
            "schema_version": RECORD_SCHEMA_VERSION,
            "timestamp": int(time.time()),
            "seed": seed,
            "seconds": seconds,
            "workloads": measured["workloads"],
        }
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"schema_version": RECORD_SCHEMA_VERSION, "history": history},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"[perf-smoke] wrote {path} ({len(history)} history record(s))")
    return True


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=int, default=400, help="budget per gate")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        metavar="PATH",
    )
    args = parser.parse_args(argv)

    def fleet(oracle: str = "coddtest", **fields):
        fields.setdefault("n_tests", args.tests)
        return lambda cache: FleetConfig(
            oracle=oracle,
            buggy=True,
            workers=2,
            seed=args.seed,
            use_cache=cache,
            **fields,
        )

    gates = [
        _gate("hunt (buggy)", fleet(), count_misses=True),
        _gate(
            "diff minidb/sqlite3",
            fleet(
                "differential",
                backend_pair=("minidb", "sqlite3"),
                n_tests=max(100, args.tests // 2),
            ),
        ),
        _gate("guided fleet", fleet(guidance="plan-coverage")),
        # Shards reduce on the cache their campaign warmed, and ddmin's
        # candidates share its statement memo: the one gate that
        # exercises that memo, end to end.
        _gate("reducing guided fleet", fleet(guidance="plan-coverage"), reduce=True),
        _gate("TLP fleet", fleet("tlp"), count_misses=True),
        _gate("DQE fleet", fleet("dqe"), count_misses=True),
    ]
    if not all(gates):
        print(
            "[perf-smoke] FAIL: shipped and cache-off runs differ, or "
            "generated SQL reached the parser (only DDL may miss the "
            "parse memo); no record appended",
            file=sys.stderr,
        )
        return 1
    print(
        "[perf-smoke] OK: shipped and cache-off runs are bit-identical, "
        "and only DDL missed the parse memo"
    )

    with open(os.path.join(_REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    runs = {
        w["name"]: _perfbench(benchmark["command"], w["name"], args.seed, seconds)
        for w in benchmark["workloads"]
    }
    if not append_record(args.out, runs, args.seed, seconds):
        print(
            "[perf-smoke] FAIL: a perfbench run failed; no record appended",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
