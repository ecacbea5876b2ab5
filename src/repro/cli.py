"""``coddtest`` command-line interface.

Subcommands::

    coddtest hunt     --dialect sqlite --tests 1000 [--buggy] [--oracle coddtest] [--workers N]
    coddtest fleet    --workers 4 --tests 2000 [--corpus bugs.jsonl] [--trace run.jsonl] [--status-port N]
    coddtest diff     --backends minidb,sqlite3 --tests 500 [--workers N] [--corpus out.jsonl]
    coddtest compare  --tests 400 [--workers N]  # per-oracle detection counts
    coddtest sqlite3  --tests 200                # run against the real SQLite
    coddtest corpus   report|merge|replay ...    # triage JSONL bug corpora
    coddtest backends list|probe ...             # backend registry + capability probes
    coddtest top      RUN.trace.jsonl | http://HOST:PORT  # one top-style frame
    coddtest trace    report RUN.trace.jsonl     # offline trace analysis

Examples live in ``examples/``; this CLI wraps the same public API for
quick interactive use.  ``hunt`` and ``compare`` route through the
fleet orchestrator, so ``--workers 1`` (the default) reproduces the
historical serial behaviour bit-for-bit while ``--workers N`` shards
the same campaign across N processes.

Determinism guarantee: every subcommand is deterministic in its inputs
-- the same seed/workers/budget replays the same campaign, and the
``corpus`` subcommands render the same files byte-identically (only
wall-clock throughput lines differ between runs).
"""

from __future__ import annotations

import argparse
import sys

from repro.adapters import Sqlite3Adapter
from repro.core import CoddTestOracle
from repro.dialects import PROFILES
from repro.fleet import (
    BugCorpus,
    FleetConfig,
    ProgressPrinter,
    make_replay_reducer,
    run_fleet,
)
from repro.fleet.orchestrator import ORACLE_FACTORIES as ORACLES, check_budget
from repro.guidance import GUIDANCE_MODES, CoverageMap

#: Oracles usable against a single backend (``hunt``/``fleet``/
#: ``compare``); the differential oracle needs a backend pair and has
#: its own ``diff`` subcommand.
SINGLE_ENGINE_ORACLES = sorted(n for n in ORACLES if n != "differential")
from repro.report import render_fleet_table
from repro.runner import run_campaign
from repro.triage import (
    cluster_corpus,
    load_corpus,
    merge_corpora,
    render_triage,
    replay_clusters,
    replay_representative,
    triage_summary_lines,
)

#: Shared help-text suffix: the guarantee every campaign subcommand makes.
_DETERMINISM = (
    "Deterministic: the same --seed/--workers/--tests always replays "
    "the same campaign and prints the same results (wall-clock "
    "throughput lines aside)."
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coddtest",
        description="CODDTest: constant-optimization-driven DBMS testing "
        "(SIGMOD 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hunt = sub.add_parser(
        "hunt",
        help="run a bug-hunting campaign on MiniDB",
        description="Run one bug-hunting campaign on MiniDB. "
        + _DETERMINISM,
    )
    _add_campaign_args(hunt, default_tests=1000)

    fleet = sub.add_parser(
        "fleet",
        help="sharded parallel campaign with a persistent bug corpus",
        description="Shard one campaign across a worker pool and feed "
        "a persistent, deduplicated JSONL bug corpus. " + _DETERMINISM
        + " A --seconds budget trades that guarantee for wall-clock "
        "control.",
    )
    _add_campaign_args(fleet, default_tests=None)
    fleet.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="wall-clock budget per shard (default when --tests is "
        "omitted: 2000 tests)",
    )
    fleet.add_argument(
        "--corpus",
        default=None,
        metavar="PATH",
        help="JSONL bug corpus: resumed if it exists, new bugs appended",
    )
    fleet.add_argument(
        "--coverage",
        default=None,
        metavar="PATH",
        help="plan-coverage checkpoint (JSON) for guided runs: loaded "
        "if it exists, saved at the end (default with --guidance and "
        "--corpus: CORPUS.coverage.json)",
    )
    fleet.add_argument(
        "--max-reports", type=int, default=1000, dest="max_reports"
    )
    fleet.add_argument(
        "--no-reduce",
        action="store_true",
        help="skip ddmin reduction of first-seen bugs",
    )

    diff = sub.add_parser(
        "diff",
        help="differential campaign: replay generated states and "
        "queries against two backends and report divergences",
        description="Tee every generated statement to a primary and a "
        "reference backend and report result divergences. "
        + _DETERMINISM,
    )
    diff.add_argument(
        "--backends",
        default="minidb,sqlite3",
        metavar="PRIMARY,SECONDARY",
        help="comma-separated pair of registered backend names (see "
        "`coddtest backends list`); the first is the engine under test "
        "(receives --buggy faults), the second the trusted reference "
        "(default: minidb,sqlite3)",
    )
    diff.add_argument(
        "--dialect",
        choices=sorted(PROFILES),
        default="sqlite",
        help="MiniDB profile for minidb backends",
    )
    diff.add_argument("--tests", type=int, default=None)
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--workers", type=int, default=1)
    diff.add_argument(
        "--buggy",
        action="store_true",
        help="seed the primary's injected fault catalog",
    )
    diff.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="wall-clock budget per shard (default when --tests is "
        "omitted: 500 tests)",
    )
    diff.add_argument(
        "--corpus",
        default=None,
        metavar="PATH",
        help="JSONL bug corpus: resumed if it exists, new bugs appended",
    )
    diff.add_argument(
        "--coverage",
        default=None,
        metavar="PATH",
        help="plan-coverage checkpoint (JSON) for guided runs: loaded "
        "if it exists, saved at the end (default with --guidance and "
        "--corpus: CORPUS.coverage.json)",
    )
    diff.add_argument(
        "--max-reports", type=int, default=1000, dest="max_reports"
    )
    _add_guidance_args(diff)
    _add_cache_args(diff)
    _add_obs_args(diff)

    compare = sub.add_parser(
        "compare",
        help="compare oracle throughput",
        description="Run every single-engine oracle on the same budget "
        "and print efficiency metrics side by side. " + _DETERMINISM,
    )
    compare.add_argument("--tests", type=int, default=400)
    compare.add_argument("--dialect", choices=sorted(PROFILES), default="sqlite")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--workers", type=int, default=1)
    _add_cache_args(compare)

    real = sub.add_parser(
        "sqlite3",
        help="test the real stdlib SQLite",
        description="Run the CODDTest oracle against the real stdlib "
        "sqlite3 module. Deterministic: the same --seed/--tests "
        "generates the same statements (findings depend on the "
        "installed SQLite version).",
    )
    real.add_argument("--tests", type=int, default=200)
    real.add_argument("--seed", type=int, default=0)
    _add_cache_args(real)

    _add_corpus_parser(sub)
    _add_backends_parser(sub)
    _add_top_parser(sub)
    _add_trace_parser(sub)

    args = parser.parse_args(argv)

    try:
        if args.command == "hunt":
            return _hunt(args)
        if args.command == "fleet":
            return _fleet(args)
        if args.command == "diff":
            return _diff(args)
        if args.command == "compare":
            return _compare(args)
        if args.command == "corpus":
            return _corpus(args)
        if args.command == "backends":
            return _backends(args)
        if args.command == "top":
            return _top(args)
        if args.command == "trace":
            return _trace(args)
        return _sqlite3(args)
    except (ValueError, OSError) as exc:
        # Bad config (e.g. --workers 0), unusable --corpus path, or a
        # malformed corpus file.
        print(f"coddtest: error: {exc}", file=sys.stderr)
        return 2


def _add_corpus_parser(sub) -> None:
    corpus = sub.add_parser(
        "corpus",
        help="triage JSONL bug corpora: report, merge, replay",
        description="Load one or many corpus files (any fleet era; "
        "entries without backend_pair load as single-engine), cluster "
        "them by fault id, plan-fingerprint signature, and backend "
        "pair, and render Table-1-style summaries. Deterministic: the "
        "same input files render byte-identical output (stable cluster "
        "order, no timestamps).",
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)

    report = csub.add_parser(
        "report",
        help="render a Table-1-style triage summary of corpus files",
        description="Cluster corpus entries and render per-fault / "
        "per-oracle counts plus one line per cluster (first-seen "
        "shard/seed, reduced witness size, replay verdict). "
        "Deterministic: two consecutive invocations on the same files "
        "are byte-identical; replay drives only deterministic engines.",
    )
    report.add_argument("paths", nargs="+", metavar="CORPUS.jsonl")
    report.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="output format (default: text)",
    )
    report.add_argument(
        "--no-replay",
        action="store_true",
        help="skip replay verification of cluster representatives",
    )
    report.add_argument(
        "--dialect",
        choices=sorted(PROFILES),
        default=None,
        help="override the MiniDB profile used for replay (default: "
        "the dialect recorded per entry, else inferred from fault ids)",
    )
    _add_replay_cache_arg(report)

    merge = csub.add_parser(
        "merge",
        help="merge corpus files into one deduplicated corpus",
        description="Deduplicate entries by fingerprint (first seen "
        "wins, sighting counters accumulate) and write one merged "
        "corpus. Deterministic: output entries are sorted by "
        "fingerprint, so the same inputs write a byte-identical file.",
    )
    merge.add_argument("paths", nargs="+", metavar="CORPUS.jsonl")
    merge.add_argument(
        "--out", required=True, metavar="PATH", help="merged corpus path"
    )

    replay = csub.add_parser(
        "replay",
        help="replay-verify one representative witness per cluster",
        description="Replay each cluster's best witness on a freshly "
        "built engine (or backend pair) and print reproduces / stale / "
        "unverifiable verdicts. Deterministic: replay drives only "
        "deterministic engines, so verdicts repeat across invocations.",
    )
    replay.add_argument("paths", nargs="+", metavar="CORPUS.jsonl")
    replay.add_argument(
        "--dialect",
        choices=sorted(PROFILES),
        default=None,
        help="override the MiniDB profile used for replay",
    )
    replay.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any cluster replays as stale "
        "(unverifiable clusters have nothing to re-check and pass)",
    )
    _add_replay_cache_arg(replay)


def _add_backends_parser(sub) -> None:
    backends = sub.add_parser(
        "backends",
        help="list registered DBMS backends and probe their capabilities",
        description="Inspect the backend registry.  'probe' runs the "
        "canned feature-probe program set against a backend build and "
        "prints its capability vector -- the input the differential "
        "compat policy is derived from.  Deterministic: probing the "
        "same backend build twice yields a byte-identical vector.",
    )
    bsub = backends.add_subparsers(dest="backends_command", required=True)

    bsub.add_parser(
        "list",
        help="list registered backends with their versions",
        description="One row per registered backend: simulated flag "
        "(ground-truth fault attribution), version, and description.",
    )

    probe = bsub.add_parser(
        "probe",
        help="run the capability probe set against backends",
        description="Build each named backend faults-off, run the "
        "canned probe programs, and print one summary line per "
        "capability vector.",
    )
    probe.add_argument(
        "names",
        nargs="*",
        metavar="BACKEND",
        help="backends to probe (default: every registered backend)",
    )
    probe.add_argument(
        "--dialect",
        choices=sorted(PROFILES),
        default="sqlite",
        help="MiniDB profile for dialect-sensitive backends",
    )
    probe.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write every probed vector into one JSON document",
    )


def _add_top_parser(sub) -> None:
    top = sub.add_parser(
        "top",
        help="render a top-style status frame from a trace or live URL",
        description="Render one top-style frame of a fleet's status: "
        "pass a trace file for a finished run, or the http://HOST:PORT "
        "URL of a live --status-port endpoint.  Frames rendered from a "
        "trace file are deterministic; live frames report wall-clock.",
    )
    top.add_argument(
        "source",
        metavar="TRACE.jsonl|URL",
        help="trace file path, or http(s):// status endpoint URL",
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="poll a live URL every --interval seconds until the run "
        "reports state=done (ignored for trace files)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="--follow poll interval (default: 2.0)",
    )


def _add_trace_parser(sub) -> None:
    trace = sub.add_parser(
        "trace",
        help="offline analysis of structured trace files",
        description="Analyze a JSONL trace written by --trace. "
        "Deterministic: the same trace file renders byte-identical "
        "output (all times are offsets from the first record).",
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    report = tsub.add_parser(
        "report",
        help="render run timeline and per-phase time breakdown",
        description="Fold a trace into a run summary: shard lifecycle "
        "timeline, guided round barriers, bug arrivals, and a "
        "flamegraph-style per-phase table.",
    )
    report.add_argument("path", metavar="TRACE.jsonl")


def _add_obs_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured JSONL trace of the run (schema-"
        "versioned events: shard lifecycle, tests, bugs, round "
        "barriers); analyze with `coddtest trace report PATH` or "
        "`coddtest top PATH`.  Campaign results are bit-identical "
        "with and without tracing.",
    )
    sub_parser.add_argument(
        "--status-port",
        type=int,
        default=None,
        dest="status_port",
        metavar="N",
        help="serve a live JSON status snapshot on 127.0.0.1:N while "
        "the fleet runs (0 picks a free port; watch it with "
        "`coddtest top http://127.0.0.1:N`)",
    )
    sub_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )


def _add_replay_cache_arg(sub_parser) -> None:
    sub_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share one evaluation cache across replayed witnesses "
        "(default: on; verdicts are identical either way).  --no-cache "
        "replays every witness on the uncached reference path.",
    )


def _add_cache_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="worker-local evaluation caching on the oracle hot path "
        "(default: on).  Campaign results are bit-identical with and "
        "without the cache (gated in CI); only throughput and the "
        "cache-stats line differ.  --no-cache disables it.",
    )


def _add_campaign_args(sub_parser, default_tests: int | None) -> None:
    sub_parser.add_argument(
        "--dialect", choices=sorted(PROFILES), default="sqlite"
    )
    sub_parser.add_argument(
        "--oracle", choices=SINGLE_ENGINE_ORACLES, default="coddtest"
    )
    sub_parser.add_argument("--tests", type=int, default=default_tests)
    sub_parser.add_argument("--seed", type=int, default=0)
    sub_parser.add_argument("--workers", type=int, default=1)
    sub_parser.add_argument(
        "--buggy",
        action="store_true",
        help="enable the profile's injected fault catalog",
    )
    _add_guidance_args(sub_parser)
    _add_cache_args(sub_parser)
    _add_obs_args(sub_parser)


def _add_guidance_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--guidance",
        choices=GUIDANCE_MODES,
        default=None,
        help="steer generation with a plan-coverage bandit instead of "
        "uniform-random knobs (deterministic for a fixed "
        "--seed/--workers; a 1-worker guided run is bit-reproducible "
        "from its seed)",
    )
    sub_parser.add_argument(
        "--guidance-rounds",
        type=int,
        default=4,
        dest="guidance_rounds",
        metavar="N",
        help="snapshot-exchange barriers per guided run (default: 4; "
        "clamped so every worker runs at least 64 tests -- or, for "
        "--seconds budgets, 2 seconds -- per round; small budgets may "
        "run as a single round with no exchange)",
    )


def _hunt(args) -> int:
    config = FleetConfig(
        oracle=args.oracle,
        dialect=args.dialect,
        buggy=args.buggy,
        workers=args.workers,
        seed=args.seed,
        n_tests=args.tests,
        guidance=args.guidance,
        guidance_rounds=args.guidance_rounds,
        use_cache=args.cache,
        trace_path=args.trace,
        status_port=args.status_port,
    )
    printer = None if args.quiet else ProgressPrinter()
    result = run_fleet(config, printer=printer)
    stats = result.merged
    _print_arm_summary(result)
    _print_cache_line(stats)
    _print_phase_line(args, stats, result.wall_seconds)
    _print_trace_note(args)
    print(
        f"{args.oracle} on {args.dialect}: {stats.tests} tests, "
        f"{stats.queries_ok} queries, QPT {stats.qpt:.2f}, "
        f"{len(stats.unique_plans)} unique plans, "
        f"coverage {100 * stats.branch_coverage:.1f}%"
    )
    print(f"bug reports: {len(stats.reports)} ({stats.bug_reports_by_kind})")
    if stats.detected_fault_ids:
        print("distinct injected bugs found:")
        for fid in sorted(stats.detected_fault_ids):
            print(f"  - {fid}")
    if stats.reports:
        report = stats.reports[0]
        print("\nfirst bug-inducing test case:")
        for sql in report.statements:
            print(f"  {sql}")
    return 0


def _fleet(args) -> int:
    n_tests = args.tests
    if n_tests is None and args.seconds is None:
        n_tests = 2000
    config = FleetConfig(
        oracle=args.oracle,
        dialect=args.dialect,
        buggy=args.buggy,
        workers=args.workers,
        seed=args.seed,
        n_tests=n_tests,
        seconds=args.seconds,
        max_reports=args.max_reports,
        guidance=args.guidance,
        guidance_rounds=args.guidance_rounds,
        use_cache=args.cache,
        trace_path=args.trace,
        status_port=args.status_port,
    )
    reduce_fn = None if args.no_reduce else make_replay_reducer(config)
    corpus, known_before = _open_corpus(args.corpus, reduce_fn)
    printer = None if args.quiet else ProgressPrinter()
    coverage, coverage_path = _open_coverage(args)

    result = run_fleet(config, corpus=corpus, printer=printer, coverage=coverage)
    _print_arm_summary(result)
    _print_cache_line(result.merged)
    _print_phase_line(args, result.merged, result.wall_seconds)
    _print_trace_note(args)

    print(render_fleet_table(result.shards, result.merged))
    print(
        f"\nfleet wall-clock {result.wall_seconds:.1f}s, "
        f"{result.merged.tests / max(result.wall_seconds, 1e-9):.1f} tests/s "
        f"across {config.workers} worker(s)"
    )
    # End-of-run triage summary: the clustered corpus, not the raw
    # entry count, is what a human acts on.
    for line in triage_summary_lines(
        result.clusters or [],
        new_unique=len(result.new_fingerprints),
        duplicates=result.duplicate_reports,
    ):
        print(line)
    if known_before:
        print(f"  ({known_before} known before this run, {len(corpus)} total)")
    if args.corpus:
        corpus.save()
        print(f"corpus saved to {args.corpus}")
    if coverage_path and result.coverage is not None:
        result.coverage.save(coverage_path)
        print(f"coverage checkpoint saved to {coverage_path}")
    _print_new_entries(corpus, set(result.new_fingerprints), cap=5, noun="bugs")
    return 0


def _open_coverage(args) -> "tuple[CoverageMap | None, str | None]":
    """The fleet's coverage checkpoint: explicit --coverage path, else
    derived from --corpus for guided runs, else in-memory only."""
    if args.guidance is None:
        if getattr(args, "coverage", None):
            # Unguided runs track no coverage; silently ignoring the
            # path would leave the user believing a checkpoint exists.
            raise ValueError(
                "--coverage requires --guidance plan-coverage"
            )
        return None, None
    path = getattr(args, "coverage", None)
    if path is None and args.corpus:
        path = args.corpus + ".coverage.json"
    if path is None:
        return None, None
    return CoverageMap.load(path), path


def _print_cache_line(stats) -> None:
    """One-line hit/miss summary of the worker-local evaluation cache
    (silent when the run was uncached).  Cache counters are the only
    campaign output allowed to vary between cache-on and cache-off
    runs of the same seed."""
    cs = stats.cache_stats
    if not cs:
        return
    print(
        f"eval cache: {stats.cache_hits} hits / {stats.cache_misses} "
        f"misses ({100 * stats.cache_hit_rate:.1f}% hit rate; "
        f"parse {cs.get('parse_hits', 0)}/{cs.get('parse_hits', 0) + cs.get('parse_misses', 0)}, "
        f"stmt {cs.get('stmt_hits', 0)}/{cs.get('stmt_hits', 0) + cs.get('stmt_misses', 0)})"
    )


def _print_phase_line(args, stats, wall_seconds: float = 0.0) -> None:
    """One-line per-phase wall-clock breakdown (generate / parse /
    execute / compare, plus the unprofiled residual).  Phase timings
    are wall-clock, so they go to stderr with the other diagnostics:
    stdout stays a pure function of the seed (diffable across runs).
    Suppressed by --quiet."""
    if getattr(args, "quiet", False):
        return
    from repro.obs import format_phase_breakdown

    line = format_phase_breakdown(stats.phase_stats, wall_seconds)
    if line:
        print(line, file=sys.stderr)


def _print_trace_note(args) -> None:
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace}")


def _top(args) -> int:
    """Render top-style frame(s) from a live status URL or a trace."""
    import time as _time

    from repro.obs import (
        fetch_status,
        read_trace,
        render_top_frame,
        snapshot_from_trace,
    )

    if args.source.startswith(("http://", "https://")):
        while True:
            snap = fetch_status(args.source)
            sys.stdout.write(render_top_frame(snap))
            sys.stdout.flush()
            if not args.follow or snap.get("state") == "done":
                return 0
            _time.sleep(args.interval)
    records = read_trace(args.source)
    sys.stdout.write(render_top_frame(snapshot_from_trace(records)))
    return 0


def _trace(args) -> int:
    from repro.obs import read_trace, render_trace_report

    sys.stdout.write(render_trace_report(read_trace(args.path)))
    return 0


def _print_arm_summary(result) -> None:
    """Per-arm pull/yield table of a guided run (no-op when unguided)."""
    rows = result.arm_summary
    if not rows:
        return
    print("guidance arms (new plan fingerprints per arm):")
    for arm, pulls, new_plans in rows:
        print(f"  {arm:18s} {pulls:6d} pulls  {new_plans:5d} new plans")


def _open_corpus(path, reduce_fn=None) -> "tuple[BugCorpus, int]":
    """Open (or create) the JSONL corpus at *path*; None means an
    in-memory corpus.  Returns it with the number of already-known
    bugs."""
    if not path:
        return BugCorpus(reduce_fn=reduce_fn), 0
    corpus = BugCorpus.open(path, reduce_fn=reduce_fn)
    # Fail fast on an unwritable path -- not after a long campaign.
    with open(path, "a", encoding="utf-8"):
        pass
    return corpus, len(corpus)


def _print_new_entries(
    corpus: BugCorpus,
    new: set,
    cap: int,
    noun: str,
    with_description: bool = False,
) -> None:
    """Show up to *cap* of this run's newly fingerprinted entries, by
    fingerprint: the corpus holds them in arrival order, which depends
    on how the shards were scheduled."""
    for shown, fingerprint in enumerate(sorted(new)):
        if shown == cap:
            print(f"\n... and {len(new) - cap} more new {noun}")
            break
        entry = corpus.entries[fingerprint]
        print(f"\n[{entry.kind}] {entry.fingerprint} ({entry.oracle})")
        if with_description:
            print(f"  {entry.description}")
        for sql in entry.reduced_statements or entry.statements:
            print(f"  {sql}")


def _diff(args) -> int:
    pair = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    if len(pair) != 2:
        print(
            f"coddtest: error: --backends expects two comma-separated "
            f"names, got {args.backends!r}",
            file=sys.stderr,
        )
        return 2
    n_tests = args.tests
    if n_tests is None and args.seconds is None:
        n_tests = 500
    config = FleetConfig(
        oracle="differential",
        backend_pair=pair,
        dialect=args.dialect,
        buggy=args.buggy,
        workers=args.workers,
        seed=args.seed,
        n_tests=n_tests,
        seconds=args.seconds,
        max_reports=args.max_reports,
        guidance=args.guidance,
        guidance_rounds=args.guidance_rounds,
        use_cache=args.cache,
        trace_path=args.trace,
        status_port=args.status_port,
    )
    corpus, known_before = _open_corpus(args.corpus)
    printer = None if args.quiet else ProgressPrinter()
    coverage, coverage_path = _open_coverage(args)

    result = run_fleet(config, corpus=corpus, printer=printer, coverage=coverage)
    stats = result.merged
    _print_arm_summary(result)
    _print_cache_line(stats)
    _print_phase_line(args, stats, result.wall_seconds)
    _print_trace_note(args)

    print(render_fleet_table(result.shards, stats))
    print(
        f"\ndifferential {pair[0]} vs {pair[1]}: {stats.tests} tests, "
        f"{stats.skipped} skipped, {len(stats.unique_plans)} unique "
        f"primary plans, {result.wall_seconds:.1f}s wall across "
        f"{config.workers} worker(s)"
    )
    print(f"divergences: {len(stats.reports)} report(s)")
    for line in triage_summary_lines(
        result.clusters or [],
        new_unique=len(result.new_fingerprints),
        duplicates=result.duplicate_reports,
    ):
        print(line)
    if known_before:
        print(f"  ({known_before} known before this run, {len(corpus)} total)")
    if stats.detected_fault_ids:
        print("distinct injected bugs implicated:")
        for fid in sorted(stats.detected_fault_ids):
            print(f"  - {fid}")
    if args.corpus:
        corpus.save()
        print(f"corpus saved to {args.corpus}")
    if coverage_path and result.coverage is not None:
        result.coverage.save(coverage_path)
        print(f"coverage checkpoint saved to {coverage_path}")
    _print_new_entries(
        corpus,
        set(result.new_fingerprints),
        cap=3,
        noun="divergences",
        with_description=True,
    )
    # Without injected faults every divergence is unexpected -- either
    # a real engine drift or a generator portability hole -- so signal
    # it in the exit code (this is what lets CI smoke runs fail).
    if stats.reports and not args.buggy:
        return 1
    return 0


def _compare(args) -> int:
    for name in SINGLE_ENGINE_ORACLES:
        config = FleetConfig(
            oracle=name,
            dialect=args.dialect,
            workers=args.workers,
            seed=args.seed,
            n_tests=args.tests,
            use_cache=args.cache,
        )
        stats = run_fleet(config).merged
        print(
            f"{name:10s} tests/s {stats.tests_per_second:8.1f}  "
            f"QPT {stats.qpt:5.2f}  plans {len(stats.unique_plans):5d}  "
            f"coverage {100 * stats.branch_coverage:5.1f}%"
        )
    return 0


def _backends(args) -> int:
    from repro import backends as registry

    if args.backends_command == "list":
        return _backends_list(registry)
    return _backends_probe(registry, args)


def _backends_list(registry) -> int:
    rows = [["NAME", "SIMULATED", "VERSION", "DESCRIPTION"]]
    for info in registry.all_backends():
        rows.append(
            [
                info.name,
                "yes" if info.simulated else "no",
                info.version("sqlite"),
                info.description,
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]) - 1)]
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(len(widths))]
        print("  ".join(cells + [row[-1]]).rstrip())
    return 0


def _backends_probe(registry, args) -> int:
    import json

    names = list(args.names) or registry.backend_names()
    vectors = []
    for name in names:
        vector = registry.probe_backend(name, dialect=args.dialect)
        ok = sum(1 for probe in vector.probes.values() if probe["ok"])
        print(
            f"{vector.qualified}: version {vector.version}, "
            f"{ok}/{len(vector.probes)} probes ok, "
            f"probe set {vector.probe_set}"
        )
        vectors.append(vector)
    if args.out:
        payload = {v.qualified: v.to_payload() for v in vectors}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"capability vectors written to {args.out}")
    return 0


def _corpus(args) -> int:
    if args.corpus_command == "report":
        return _corpus_report(args)
    if args.corpus_command == "merge":
        return _corpus_merge(args)
    return _corpus_replay(args)


def _corpus_report(args) -> int:
    clusters = cluster_corpus(load_corpus(args.paths))
    verdicts = (
        None
        if args.no_replay
        else replay_clusters(
            clusters, dialect=args.dialect, use_cache=args.cache
        )
    )
    print(render_triage(clusters, verdicts, fmt=args.format))
    return 0


def _corpus_merge(args) -> int:
    merged = merge_corpora(args.paths, out_path=args.out)
    total_seen = merged.total_seen
    print(
        f"merged {len(args.paths)} corpus file(s) -> {len(merged)} "
        f"distinct bugs ({total_seen} sightings) in {args.out}"
    )
    return 0


def _corpus_replay(args) -> int:
    clusters = cluster_corpus(load_corpus(args.paths))
    stale = 0
    # One cache across the whole corpus (like `corpus report`), so
    # witnesses sharing DDL prefixes parse once; None replays every
    # witness uncached.
    cache = None
    if args.cache:
        from repro.perf import EvalCache

        cache = EvalCache()
    for cluster in clusters:
        verdict = replay_representative(
            cluster, dialect=args.dialect, cache=cache
        )
        if verdict.status == "stale":
            stale += 1
        witness = (
            f" [{verdict.witness} witness]" if verdict.witness != "-" else ""
        )
        print(
            f"{cluster.cluster_id}  {verdict.status:12s} "
            f"[{cluster.kind}] {cluster.fault_label}{witness}: "
            f"{verdict.detail}"
        )
    print(
        f"\n{len(clusters)} cluster(s): {stale} stale, "
        f"{len(clusters) - stale} reproducing or unverifiable"
    )
    if args.strict and stale:
        return 1
    return 0


def _sqlite3(args) -> int:
    # The only subcommand that builds no FleetConfig; same budget rule.
    check_budget(args.tests, None)
    adapter = Sqlite3Adapter()
    oracle = CoddTestOracle(relation_mode_prob=0.0)
    stats = run_campaign(
        oracle,
        adapter,
        n_tests=args.tests,
        seed=args.seed,
        use_cache=args.cache,
    )
    print(
        f"coddtest on real sqlite3: {stats.tests} tests, "
        f"{stats.queries_ok} queries, {len(stats.reports)} reports"
    )
    for report in stats.reports[:5]:
        print(f"- [{report.kind}] {report.description}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
