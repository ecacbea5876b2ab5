"""perf-smoke: the blocking CI gate for the perf-layer contract.

Two duties:

1. **Correctness gate** -- run fixed-seed campaigns over every cached
   code path (single-engine hunt with injected faults, cross-backend
   differential, plan-coverage-guided fleet, and a guided fleet whose
   shards reduce its bugs on their campaign's cache) as shipped and
   cache-off, and fail (exit 1) unless both produced identical
   deterministic campaign signatures, corpus fingerprints, guided arm
   schedules, reduced witnesses and replay verdicts.  This is the
   bit-identity promise of :mod:`repro.perf`, checked end to end on
   every push.  Campaigns use only the parse memo; the reducing-fleet
   gate is the one that exercises the statement memo, which serves
   ddmin's candidate replays alone.  Only the MiniDB adapter caches,
   so the differential gate checks the MiniDB primary's parse memo;
   the sqlite3 secondary has none.  The shipped hunt run also counts
   its parse-memo misses by leading keyword and fails on any SELECT,
   WITH or INSERT: the generators build those as ASTs and prime the
   memo, so only DDL should reach the parser, and a miss means a
   generator path renders SQL without handing its AST along.
2. **Bench artifact** -- sweep the fig2 workload over MaxDepth 3/5/7
   in both modes and write ``BENCH_perf.json``
   (:mod:`repro.perf.bench` schema) with tests/sec, speedup, and hit
   rates.  Each run *appends* a record to the ``history`` trajectory
   carried in the file, stamped with the commit and whether ``src/``
   or ``tools/`` differed from it, so the perf trajectory is
   machine-readable across commits, not just for the latest one.

Only the signature checks gate.  Speedups are recorded, not asserted,
because shared CI hardware is noisy (benchmarks/test_cache_speedup.py
asserts the speedup shape on quieter boxes).

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--tests N] [--out BENCH_perf.json]
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
from repro.obs.phases import format_phase_breakdown
from repro.perf.bench import bench_payload, measure_depth
from repro.triage.replay import replay_clusters

DEPTHS = (3, 5, 7)

#: Keep at most this many per-commit records in the BENCH_perf.json
#: ``history`` trajectory (oldest dropped first).
_HISTORY_CAP = 200

#: Default artifact location: the repo root, regardless of the cwd the
#: smoke run was launched from, so CI and local runs update one file.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


#: Leading keywords of the statements the generators prime into the
#: parse memo; a parse-memo miss on one of them is a gate failure.
_PRIMED_KEYWORDS = ("SELECT", "WITH", "INSERT")


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
) -> dict:
    """Run one workload as shipped and cache-off and require identical
    signatures.  *make_config* takes ``use_cache``.  With
    *count_misses*, the shipped run's parse-memo misses must all be
    DDL."""
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
    record = {"name": name, "identical": identical}
    if count_misses:
        unprimed = sum(misses[keyword] for keyword in _PRIMED_KEYWORDS)
        counts = ", ".join(f"{k} {n}" for k, n in sorted(misses.items()))
        print(f"[perf-smoke] {name:20s} parse-memo misses: {counts or 'none'}")
        if not misses:
            # DDL always misses: no count means the counter never ran.
            print("  no parse-memo miss was counted; the count is broken")
            unprimed = None
        elif unprimed:
            print(
                f"  {unprimed} SELECT/WITH/INSERT miss(es): a generator "
                "path renders SQL without priming the parse memo"
            )
        record["unprimed_parse_misses"] = unprimed
    return record


def tree_provenance(root: str = _REPO_ROOT) -> dict:
    """The tree a record measures: ``commit`` is HEAD's short hash
    ("unknown" outside a git checkout) and ``dirty`` says whether
    ``src/`` or ``tools/`` differ from it (None when git cannot tell).
    A run before the measured change is committed is then stamped
    with its base commit *and* ``dirty: true``."""

    def git(*args: str) -> "str | None":
        try:
            out = subprocess.run(
                ["git", *args],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "tools")
    return {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
    }


def _history_record(payload: dict) -> dict:
    """Compact summary of one run, appended to the trajectory."""
    return {
        **tree_provenance(),
        "timestamp": int(time.time()),
        "schema_version": payload["schema_version"],
        "min_speedup_at_depth_ge_5": payload["min_speedup_at_depth_ge_5"],
        "all_signatures_identical": payload["all_signatures_identical"],
        "sweep": [
            {
                "max_depth": r["max_depth"],
                "tests_per_second_cache_off": r["tests_per_second_cache_off"],
                "tests_per_second_cache_on": r["tests_per_second_cache_on"],
                "speedup": r["speedup"],
            }
            for r in payload["maxdepth_sweep"]
        ],
    }


def _load_history(path: str) -> list:
    """Prior trajectory from an existing artifact, records of earlier
    schema versions included as written (tolerates the pre-trajectory
    layout and a missing or corrupt file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return []
    history = previous.get("history", [])
    return history if isinstance(history, list) else []


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=int, default=400, help="budget per workload gate")
    parser.add_argument("--bench-tests", type=int, default=400, dest="bench_tests")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        metavar="PATH",
    )
    args = parser.parse_args(argv)

    workloads = [
        _gate(
            "hunt (buggy)",
            lambda cache: FleetConfig(
                oracle="coddtest",
                buggy=True,
                workers=2,
                seed=args.seed,
                n_tests=args.tests,
                use_cache=cache,
            ),
            count_misses=True,
        ),
        _gate(
            "diff minidb/sqlite3",
            lambda cache: FleetConfig(
                oracle="differential",
                backend_pair=("minidb", "sqlite3"),
                buggy=True,
                workers=2,
                seed=args.seed,
                n_tests=max(100, args.tests // 2),
                use_cache=cache,
            ),
        ),
        _gate(
            "guided fleet",
            lambda cache: FleetConfig(
                oracle="coddtest",
                buggy=True,
                workers=2,
                seed=args.seed,
                n_tests=args.tests,
                guidance="plan-coverage",
                use_cache=cache,
            ),
        ),
        # Shards reduce on the cache their campaign warmed, and ddmin's
        # candidates share its statement memo: the one gate that
        # exercises that memo, end to end.
        _gate(
            "reducing guided fleet",
            lambda cache: FleetConfig(
                oracle="coddtest",
                buggy=True,
                workers=2,
                seed=args.seed,
                n_tests=args.tests,
                guidance="plan-coverage",
                use_cache=cache,
            ),
            reduce=True,
        ),
    ]

    sweep = []
    for depth in DEPTHS:
        record = measure_depth(depth, tests=args.bench_tests, seed=args.seed)
        sweep.append(record)
        print(
            f"[perf-smoke] fig2 MaxDepth {depth}: "
            f"{record['tests_per_second_cache_off']:.0f} -> "
            f"{record['tests_per_second_cache_on']:.0f} tests/s "
            f"(cache {record['speedup']:.2f}x, "
            f"hit rate {100 * record['cache_hit_rate']:.1f}%, "
            f"signatures {'identical' if record['signatures_identical'] else 'MISMATCH'})"
        )
        breakdown = format_phase_breakdown(record["phases"]["cache_on"])
        if breakdown:
            print(f"[perf-smoke]   cache-on {breakdown}")

    payload = bench_payload(sweep, workloads)
    history = _load_history(args.out)
    history.append(_history_record(payload))
    payload["history"] = history[-_HISTORY_CAP:]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"[perf-smoke] wrote {args.out} "
        f"({len(payload['history'])} history record(s))"
    )

    if not payload["all_signatures_identical"]:
        print(
            "[perf-smoke] FAIL: shipped and cache-off runs are not "
            "bit-identical",
            file=sys.stderr,
        )
        return 1
    if any(w.get("unprimed_parse_misses", 0) != 0 for w in workloads):
        print(
            "[perf-smoke] FAIL: generated SQL reached the parser "
            "(only DDL may miss the parse memo)",
            file=sys.stderr,
        )
        return 1
    print(
        "[perf-smoke] OK: shipped and cache-off runs are bit-identical, "
        "and only DDL missed the parse memo"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
