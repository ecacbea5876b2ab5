"""Sharded campaign orchestration over a multiprocessing worker pool.

Each worker owns a full private stack -- engine, adapter, oracle,
state generator -- built from a picklable :class:`ShardSpec`, runs a
plain serial :class:`~repro.runner.campaign.Campaign`, and streams
progress plus its final :class:`CampaignStats` back over a queue.  The
orchestrator merges shard stats (set-union of plans, max coverage, QPT
recomputed from merged counters), enforces the fleet-wide
``max_reports`` bound via a shared stop event, and feeds every report
through the bug corpus for deduplication.  A shard ddmin-reduces each
report new to the fleet as its campaign records it, on the shard's own
cache, so reports reach the corpus with their reduced witness.

Every fleet runs one loop of rounds.  An unguided fleet is the
one-round case: no policy, no coverage map, no barrier events.  A
guided fleet splits its budget into several rounds and exchanges
coverage snapshots at the barriers between them.

A 1-worker fleet runs in-process through the same shard code path, so
``run_fleet(workers=1, seed=S)`` bit-matches the serial
``run_campaign(seed=S)`` (modulo wall-clock timing).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.backends import backend_names, build_backend, get_backend
from repro.baselines import DQEOracle, EETOracle, NoRECOracle, TLPOracle
from repro.core import CoddTestOracle
from repro.differential import DifferentialOracle, build_pair_adapter
from repro.errors import (
    EngineCrash,
    EngineHang,
    InternalError,
    ReproError,
    SqlError,
)
from repro.fleet.corpus import BugCorpus, fingerprint_report
from repro.fleet.progress import ProgressPrinter, ProgressSnapshot
from repro.fleet.sharding import (
    ShardSpec,
    derive_round_seed,
    derive_shard_seeds,
    split_tests,
)
from repro.fleet.telemetry import FleetTelemetry
from repro.guidance import (
    GUIDANCE_MODES,
    CoverageMap,
    GuidedPolicy,
    policy_seed,
)
from repro.obs.trace import TraceWriter
from repro.oracles_base import Oracle, TestReport
from repro.perf import EvalCache
from repro.runner.campaign import Campaign, CampaignStats
from repro.runner.reducer import reduce_statements

#: Oracle registry shared with the CLI.
ORACLE_FACTORIES: dict[str, Callable[..., Oracle]] = {
    "coddtest": CoddTestOracle,
    "norec": NoRECOracle,
    "tlp": TLPOracle,
    "dqe": DQEOracle,
    "eet": EETOracle,
    "differential": DifferentialOracle,
}

#: How often (seconds) a worker posts a progress message at most.
PROGRESS_EVERY = 0.5


def check_budget(n_tests: int | None, seconds: float | None) -> None:
    """Reject a missing budget, or a set one that could run no test."""
    if n_tests is None and seconds is None:
        raise ValueError("specify n_tests and/or seconds")
    if n_tests is not None and n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    if seconds is not None and not seconds > 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")


@dataclass
class FleetConfig:
    """One fleet invocation, fully picklable."""

    oracle: str = "coddtest"
    oracle_kwargs: dict = field(default_factory=dict)
    #: Single-backend campaigns: any registered backend name (see
    #: :func:`repro.backends.backend_names`).
    adapter: str = "minidb"
    dialect: str = "sqlite"
    buggy: bool = False
    workers: int = 1
    seed: int = 0
    n_tests: int | None = None
    seconds: float | None = None
    tests_per_state: int = 25
    max_reports: int = 1000
    #: Differential campaigns: (primary, secondary) backend names, e.g.
    #: ``("minidb", "sqlite3")``.  Requires ``oracle="differential"``.
    backend_pair: tuple[str, str] | None = None
    #: Guidance mode: None (uniform random, the historical behaviour)
    #: or "plan-coverage" (coverage-guided arms; see repro.guidance).
    guidance: str | None = None
    #: Number of snapshot-exchange barriers a guided fleet runs: the
    #: budget is split into this many rounds, each round's shards run
    #: to completion, then coverage merges and arm priors rebalance.
    guidance_rounds: int = 4
    #: Fleet-wide sightings at which a fault counts as saturated.
    saturation_threshold: int = 20
    #: Worker-local evaluation caching (repro.perf): each shard owns one
    #: EvalCache, never shared across processes.  On by default because
    #: cache-on campaigns are bit-identical to cache-off ones (gated by
    #: the perf-smoke CI job); ``coddtest ... --no-cache`` turns it off.
    use_cache: bool = True
    #: Structured trace output (``--trace out.jsonl``): workers write
    #: per-shard part files, the orchestrator merges them plus its own
    #: events into one JSONL stream sorted by timestamp.  None traces
    #: nothing; tracing never changes deterministic outputs.
    trace_path: str | None = None
    #: Live status endpoint (``--status-port N``): a stdlib HTTP server
    #: in the orchestrator serving the latest fleet snapshot as JSON.
    #: 0 binds an ephemeral port; None disables the server.
    status_port: int | None = None

    def __post_init__(self) -> None:
        if self.oracle not in ORACLE_FACTORIES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        registered = backend_names()
        if self.adapter not in registered:
            raise ValueError(
                f"unknown adapter {self.adapter!r}; registered backends: "
                f"{', '.join(registered)}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # A met report cap runs no test; an empty batch per state never
        # ends.  Both must fail here, before any worker starts.
        if self.max_reports < 1:
            raise ValueError(
                f"max_reports must be >= 1, got {self.max_reports}"
            )
        if self.tests_per_state < 1:
            raise ValueError(
                f"tests_per_state must be >= 1, got {self.tests_per_state}"
            )
        check_budget(self.n_tests, self.seconds)
        if self.backend_pair is not None:
            self.backend_pair = tuple(self.backend_pair)
            if len(self.backend_pair) != 2 or any(
                b not in registered for b in self.backend_pair
            ):
                raise ValueError(
                    "backend_pair must name two registered backends "
                    f"({', '.join(registered)}), got {self.backend_pair!r}"
                )
            if self.oracle != "differential":
                raise ValueError(
                    "backend_pair requires oracle='differential'"
                )
        elif self.oracle == "differential":
            raise ValueError(
                "the differential oracle requires a backend_pair, e.g. "
                "('minidb', 'sqlite3')"
            )
        if self.guidance is not None and self.guidance not in GUIDANCE_MODES:
            raise ValueError(
                f"unknown guidance mode {self.guidance!r}; "
                f"choose one of {GUIDANCE_MODES}"
            )
        if self.guidance_rounds < 1:
            raise ValueError(
                f"guidance_rounds must be >= 1, got {self.guidance_rounds}"
            )


@dataclass
class FleetResult:
    """Merged outcome of a fleet run."""

    merged: CampaignStats
    shards: list[CampaignStats]
    wall_seconds: float
    new_fingerprints: list[str] = field(default_factory=list)
    duplicate_reports: int = 0
    corpus: BugCorpus | None = None
    #: End-of-run triage of the (whole) attached corpus: clusters keyed
    #: by fault ids, plan signature, and backend pair, in stable order.
    #: None when the fleet ran without a corpus.
    clusters: "list | None" = None
    #: Merged plan-coverage map of a guided run (None when unguided).
    #: Save it alongside the corpus to resume guidance across fleets.
    coverage: CoverageMap | None = None
    #: Per-shard arm schedule of a guided run (arm name per test, in
    #: order) -- the reproducibility witness: same seed + workers must
    #: yield identical schedules.  None when unguided.
    arm_schedules: "list[list[str]] | None" = None

    @property
    def arm_summary(self) -> "list[tuple[str, int, int]]":
        """``(arm, pulls, new_plans)`` rows of a guided run, best first."""
        if self.coverage is None:
            return []
        return self.coverage.arm_summary()


def _shard_trace_path(config: FleetConfig, shard_index: int) -> "str | None":
    if config.trace_path is None:
        return None
    from repro.obs.trace import shard_part_path

    return shard_part_path(config.trace_path, shard_index)


def build_shards(
    config: FleetConfig,
    round_index: int = 0,
    *,
    n_tests: int | None = None,
    seconds: float | None = None,
    policy_states: "list[dict | None] | None" = None,
    coverage: CoverageMap | None = None,
    saturated: frozenset[str] = frozenset(),
    epoch: str = "",
    max_reports: int | None = None,
    reducer: "ReplayReducer | None" = None,
    known_fingerprints: frozenset[str] = frozenset(),
) -> list[ShardSpec]:
    """Deterministic shard plan for one round of *config*.

    The defaults plan an unguided fleet: round 0 (whose seeds are the
    shard seeds themselves) over the whole budget.  A guided round
    passes its slice of the budget (None keeps the config's), the
    policy states carried from the previous round, the merged coverage
    snapshot, the saturated faults, the coverage-source epoch, and the
    report cap still remaining.  A reducing fleet passes its *reducer*
    and the fingerprints its corpus holds, which the shards skip.
    """
    seeds = derive_shard_seeds(config.seed, config.workers)
    quotas = split_tests(
        config.n_tests if n_tests is None else n_tests, config.workers
    )
    snapshot = None if coverage is None else coverage.to_dict()
    return [
        ShardSpec(
            shard_index=i,
            workers=config.workers,
            seed=derive_round_seed(seeds[i], round_index),
            n_tests=quotas[i],
            seconds=config.seconds if seconds is None else seconds,
            oracle=config.oracle,
            oracle_kwargs=dict(config.oracle_kwargs),
            adapter=config.adapter,
            dialect=config.dialect,
            buggy=config.buggy,
            tests_per_state=config.tests_per_state,
            # Each shard stays within the fleet-wide bound; the merge
            # truncates again, and the stop event ends the other shards.
            max_reports=(
                config.max_reports if max_reports is None else max_reports
            ),
            backend_pair=config.backend_pair,
            guidance=config.guidance,
            round_index=round_index,
            policy_state=policy_states[i] if policy_states else None,
            coverage_snapshot=snapshot,
            saturated_faults=tuple(sorted(saturated)),
            coverage_source=f"{config.seed}:{i}/{config.workers}{epoch}",
            use_cache=config.use_cache,
            trace_path=_shard_trace_path(config, i),
            reducer=reducer,
            known_fingerprints=known_fingerprints,
        )
        for i in range(config.workers)
    ]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _build_adapter(spec: ShardSpec):
    if spec.backend_pair is not None:
        return build_pair_adapter(
            spec.backend_pair, dialect=spec.dialect, buggy=spec.buggy
        )
    return build_backend(
        spec.adapter, dialect=spec.dialect, buggy=spec.buggy
    )


def _build_policy(spec: ShardSpec) -> GuidedPolicy | None:
    """The shard's generation policy: fresh on round 0, resumed from the
    serialized state afterwards, with the merged fleet snapshot folded
    in either way (fleet-known fingerprints are not novel here)."""
    if spec.guidance is None:
        return None
    snapshot = CoverageMap.from_dict(spec.coverage_snapshot)
    saturated = frozenset(spec.saturated_faults)
    if spec.policy_state is not None:
        policy = GuidedPolicy.from_state(spec.policy_state)
        policy.absorb_snapshot(snapshot, saturated)
    else:
        policy = GuidedPolicy(
            policy_seed(spec.seed),
            source=spec.coverage_source or f"shard{spec.shard_index}",
            known_plans=snapshot.seen_plans(),
            saturated=saturated,
        )
    # Budget rebalance: arms the fleet pulled hard for little yield
    # start this round deprioritized (prior excludes this shard's own
    # counters, which live in the resumed policy state).
    policy.inject_prior(_arm_prior(snapshot, exclude_source=policy.source))
    return policy


def _arm_prior(
    snapshot: CoverageMap, exclude_source: str
) -> "dict[str, tuple[int, float]]":
    prior: dict[str, tuple[int, float]] = {}
    for source, arms in snapshot.arms.items():
        if source == exclude_source:
            continue
        for arm, counters in arms.items():
            pulls, reward = prior.get(arm, (0, 0.0))
            prior[arm] = (
                pulls + counters.get("pulls", 0),
                reward + float(counters.get("new_plans", 0)),
            )
    return prior


def _run_shard(
    spec: ShardSpec,
    should_stop: Callable[[], bool] | None = None,
    on_progress: Callable[[CampaignStats], None] | None = None,
) -> dict:
    """Run one shard to completion in the current process.

    Returns the shard payload: ``{"stats": CampaignStats}`` plus, for
    guided shards, the serialized policy state and coverage snapshot
    the orchestrator merges at the next round barrier.
    """
    oracle = ORACLE_FACTORIES[spec.oracle](**spec.oracle_kwargs)
    policy = _build_policy(spec)
    cache = EvalCache() if spec.use_cache else None
    on_report = None
    if spec.reducer is not None:
        # Reduce each bug new to the fleet once, when the campaign
        # records it: inside Campaign.run, so the reduction's cache
        # lookups count in this shard's (deterministic) cache stats.
        skip = set(spec.known_fingerprints)

        def on_report(report: TestReport) -> None:
            fingerprint = fingerprint_report(report)
            if fingerprint not in skip:
                skip.add(fingerprint)
                report.reduced_statements = spec.reducer(report, cache)
    tracer = (
        TraceWriter(spec.trace_path, shard=spec.shard_index)
        if spec.trace_path is not None
        else None
    )
    if tracer is not None:
        tracer.emit("shard_start", seed=spec.seed, round=spec.round_index)
    campaign = Campaign(
        oracle,
        _build_adapter(spec),
        seed=spec.seed,
        tests_per_state=spec.tests_per_state,
        max_reports=spec.max_reports,
        should_stop=should_stop,
        on_progress=on_progress,
        on_report=on_report,
        policy=policy,
        cache=cache,
        tracer=tracer,
    )
    try:
        stats = campaign.run(n_tests=spec.n_tests, seconds=spec.seconds)
    finally:
        if tracer is not None:
            tracer.flush()
    if tracer is not None:
        tracer.emit(
            "shard_finish",
            tests=stats.tests,
            skipped=stats.skipped,
            reports=len(stats.reports),
            round=spec.round_index,
            phases=stats.phase_stats,
            cache=stats.cache_stats,
            unique_plans=len(stats.unique_plans),
        )
        tracer.close()
    payload: dict = {"stats": stats}
    if policy is not None:
        payload["policy"] = policy.to_state()
        payload["coverage"] = policy.coverage.to_dict()
    return payload


def _worker_main(spec: ShardSpec, out_queue, stop_event) -> None:
    """Worker process entry point: run the shard, stream progress.

    Progress messages carry the reports found since the previous
    message, so the orchestrator can absorb them into the bug corpus
    while the fleet is still running -- an interrupted fleet keeps the
    bugs streamed so far.
    """
    last_sent = 0.0
    reports_sent = 0

    def on_progress(stats: CampaignStats) -> None:
        nonlocal last_sent, reports_sent
        now = time.monotonic()
        if now - last_sent < PROGRESS_EVERY:
            return
        last_sent = now
        new_reports = stats.reports[reports_sent:]
        reports_sent = len(stats.reports)
        out_queue.put(
            (
                "progress",
                spec.shard_index,
                {**_progress_payload(stats), "new_reports": new_reports},
            )
        )

    try:
        payload = _run_shard(
            spec, should_stop=stop_event.is_set, on_progress=on_progress
        )
    except Exception:
        out_queue.put(("error", spec.shard_index, traceback.format_exc()))
    else:
        out_queue.put(("result", spec.shard_index, payload))


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------


class _CorpusSink:
    """Feeds reports into the corpus *as they arrive*, so an
    interrupted fleet keeps every bug streamed so far (matching the
    corpus' append-on-add crash-safety), and tracks the new/duplicate
    split for progress lines and the final result."""

    def __init__(
        self,
        corpus: BugCorpus | None,
        config: "FleetConfig | None" = None,
        telemetry: "FleetTelemetry | None" = None,
    ) -> None:
        self.corpus = corpus
        self.config = config
        self.telemetry = telemetry
        self.new_fingerprints: list[str] = []
        self.duplicates = 0
        #: Reports already absorbed per shard (progress streaming).
        self.absorbed: dict[int, int] = {}

    def absorb(self, shard_index: int, reports: list[TestReport]) -> None:
        if self.corpus is None or not reports:
            return
        self.absorbed[shard_index] = (
            self.absorbed.get(shard_index, 0) + len(reports)
        )
        seed = self.config.seed if self.config is not None else None
        dialect = self.config.dialect if self.config is not None else None
        for report in reports:
            # Shards reduce every report the corpus did not hold at the
            # start of the round, so the corpus never reduces here.
            added = self.corpus.add(
                report,
                shard_index=shard_index,
                seed=seed,
                dialect=dialect,
                reduced=report.reduced_statements,
            )
            if added:
                fingerprint = fingerprint_report(report)
                self.new_fingerprints.append(fingerprint)
                if self.telemetry is not None:
                    self.telemetry.cluster_new(fingerprint, report.kind)
            else:
                self.duplicates += 1

    def absorb_remainder(self, shard_index: int, stats: CampaignStats) -> None:
        """Absorb the reports of a finished shard that no progress
        message carried yet."""
        done = self.absorbed.get(shard_index, 0)
        self.absorb(shard_index, stats.reports[done:])

    def start_round(self) -> None:
        """Reset the per-shard absorption offsets at a round barrier:
        each round's campaigns report from index 0 again, so a
        stale offset would slice past (and silently drop) every report
        the new round finds.  Corpus dedup state is untouched."""
        self.absorbed.clear()

    @property
    def unique(self) -> int | None:
        """Newly fingerprinted this run; None without a corpus."""
        return None if self.corpus is None else len(self.new_fingerprints)


def run_fleet(
    config: FleetConfig,
    corpus: BugCorpus | None = None,
    printer: ProgressPrinter | None = None,
    coverage: CoverageMap | None = None,
    telemetry: FleetTelemetry | None = None,
) -> FleetResult:
    """Run a sharded campaign and merge the results.

    *corpus* (optional) deduplicates reports across shards and past
    invocations (first-seen entries are stamped with shard/seed/dialect
    provenance); *printer* (optional) emits periodic progress lines;
    *coverage* (optional, guided fleets) seeds the plan-coverage map --
    pass a loaded checkpoint to resume guidance across invocations;
    *telemetry* (optional) bundles every observability surface --
    progress printer, ``--trace`` stream, ``--status-port`` endpoint
    (one is built from *config* + *printer* when omitted).
    The result is deterministic for a given ``(seed, workers, budget)``:
    shard stats merge in spec order and the corpus holds the same entry
    set regardless of scheduling.  Telemetry never feeds back into
    scheduling, so every deterministic output is identical with the
    surfaces on or off.

    The shards reduce first-seen bugs, so the corpus' ``reduce_fn``
    must be None or ``make_replay_reducer(config)``; anything else
    raises ValueError.
    """
    if (
        corpus is not None
        and corpus.reduce_fn is not None
        and corpus.reduce_fn != make_replay_reducer(config)
    ):
        raise ValueError(
            "the corpus' reduce_fn must be make_replay_reducer(config) "
            f"for this fleet's configuration, got {corpus.reduce_fn!r}"
        )
    if telemetry is None:
        telemetry = FleetTelemetry(
            printer=printer,
            trace_path=config.trace_path,
            status_port=config.status_port,
        )
    telemetry.open(config)
    try:
        return _run_rounds(config, corpus, telemetry, coverage)
    finally:
        telemetry.close()


def _attach_clusters(result: FleetResult, corpus: BugCorpus | None) -> None:
    if corpus is None:
        return
    # End-of-run triage: the raw entry count is not the unit of
    # truth, the clustered corpus is (ROADMAP "Corpus triage").
    # Imported lazily: the triage package reads corpus entries, so
    # importing it at module level would be circular.
    from repro.triage.cluster import cluster_corpus

    result.clusters = cluster_corpus(corpus.entries.values())


# ---------------------------------------------------------------------------
# The fleet loop: deterministic rounds with snapshot exchange
# ---------------------------------------------------------------------------


#: Minimum tests a shard should run between snapshot barriers: below
#: this the bandit re-pays its exploration phase every round for no
#: exchange benefit (measured on 200-test campaigns).
_MIN_TESTS_PER_ROUND = 64


#: Minimum seconds per round for wall-clock-only budgets (the test
#: clamp cannot apply when the test count is unknown up front).
_MIN_SECONDS_PER_ROUND = 2.0


def _effective_rounds(config: FleetConfig) -> int:
    """One round for an unguided fleet (there is nothing to exchange).
    A guided fleet's round count is clamped so every shard gets a
    meaningful slice of work per round: at least
    ``_MIN_TESTS_PER_ROUND`` tests for test budgets, at least
    ``_MIN_SECONDS_PER_ROUND`` seconds for wall-clock-only budgets (and
    always at least one round)."""
    if config.guidance is None:
        return 1
    if config.n_tests is None:
        return max(
            1,
            min(
                config.guidance_rounds,
                int(config.seconds / _MIN_SECONDS_PER_ROUND) or 1,
            ),
        )
    per_worker = config.n_tests // config.workers
    return max(
        1,
        min(
            config.guidance_rounds,
            per_worker // _MIN_TESTS_PER_ROUND or 1,
            per_worker,
        ),
    )


def _saturated_fault_ids(
    coverage: CoverageMap, corpus: BugCorpus | None, threshold: int
) -> frozenset[str]:
    """The union of both saturation signals: faults the coverage map has
    counted *threshold* times, and faults whose triage clusters have
    accumulated *threshold* sightings in the corpus."""
    saturated = set(coverage.saturated_faults(threshold))
    if corpus is not None:
        from repro.triage.cluster import cluster_corpus, saturated_fault_ids

        clusters = cluster_corpus(corpus.entries.values())
        saturated |= saturated_fault_ids(clusters, threshold)
    return frozenset(saturated)


def _coverage_epoch(initial: CoverageMap) -> str:
    """Disambiguates counter ownership across resumed invocations.

    Coverage sources must be single-writer, monotone streams for the
    CRDT max-merge to count correctly.  A fresh run owns the bare
    ``seed:shard/workers`` source, so re-running the identical fleet
    merges idempotently; a run resumed from a non-empty checkpoint
    makes *different* decisions (its novelty set starts from the
    checkpoint), so its counters get a new owner derived from the
    checkpoint content -- same checkpoint, same owner (still
    idempotent), different checkpoint, separate counters that sum.
    """
    import hashlib
    import json

    if not initial.plans and not initial.faults and not initial.arms:
        return ""
    payload = json.dumps(initial.to_dict(), sort_keys=True)
    return "@" + hashlib.blake2b(payload.encode(), digest_size=4).hexdigest()


def _progress_base(per_shard: "list[list[CampaignStats]]") -> Counter:
    """Earlier rounds' counters, summed like live progress payloads, so
    progress keeps counting up across round barriers.  Plans sum per
    shard-round, keeping the live count an upper bound on the merged
    set-union.  Round 0's base is empty (all zeros)."""
    base: Counter = Counter()
    for rounds in per_shard:
        for stats in rounds:
            base.update(_progress_payload(stats))
    return base


def _run_rounds(
    config: FleetConfig,
    corpus: BugCorpus | None,
    telemetry: FleetTelemetry,
    coverage: CoverageMap | None,
) -> FleetResult:
    """The fleet loop: the budget is split into rounds, each round's
    shards run to completion, then their results merge.

    An unguided fleet runs one round with no policy, no coverage map
    and no saturated faults, and emits no barrier events.  Between the
    rounds of a guided fleet the orchestrator merges every shard's
    coverage snapshot (CRDT join, so order and repetition are
    harmless), recomputes the saturated-fault set from the corpus
    triage clusters, and rebalances the remaining budget toward
    under-covered arms by injecting fleet-global arm priors into each
    shard's bandit.

    Exchanging only at round barriers keeps the whole fleet a pure
    function of ``(seed, workers, budget)``: within a round shards are
    independent deterministic campaigns, and the merge is a CRDT join.
    """
    if config.guidance is None:
        coverage = None
    elif coverage is None:
        coverage = CoverageMap()
    epoch = "" if coverage is None else _coverage_epoch(coverage)
    reducer = None if corpus is None else corpus.reduce_fn
    sink = _CorpusSink(corpus, config, telemetry)
    start = time.monotonic()
    rounds = _effective_rounds(config)
    policy_states: list[dict | None] = [None] * config.workers
    per_shard: list[list[CampaignStats]] = [[] for _ in range(config.workers)]
    known_saturated: set[str] = set()
    remaining = config.n_tests
    reports_so_far = 0
    for round_index in range(rounds):
        round_tests: int | None = None
        if remaining is not None:
            round_tests = remaining // (rounds - round_index)
            remaining -= round_tests
        round_seconds = (
            None if config.seconds is None else config.seconds / rounds
        )
        saturated: frozenset[str] = frozenset()
        if coverage is not None:
            saturated = _saturated_fault_ids(
                coverage, corpus, config.saturation_threshold
            )
            for fault in sorted(saturated - known_saturated):
                telemetry.cluster_saturated(fault)
            known_saturated |= saturated
            telemetry.round_barrier(
                round_index,
                rounds,
                saturated=len(saturated),
                plans=len(coverage.seen_plans()),
            )
        # The fleet-wide report cap is cumulative across rounds: each
        # round only gets the remainder, so a guided fleet overshoots
        # by at most the same race window as an unguided one.
        remaining_reports = max(0, config.max_reports - reports_so_far)
        sink.start_round()
        specs = build_shards(
            config,
            round_index,
            n_tests=round_tests,
            seconds=round_seconds,
            policy_states=policy_states,
            coverage=coverage,
            saturated=saturated,
            epoch=epoch,
            max_reports=remaining_reports,
            reducer=reducer,
            known_fingerprints=(
                frozenset() if reducer is None else frozenset(corpus.entries)
            ),
        )
        base = _progress_base(per_shard)
        if config.workers == 1:
            round_payloads = [
                _run_one_inprocess(
                    specs[0], config, sink, telemetry, start, base
                )
            ]
        else:
            round_payloads = _run_pool(
                specs, config, sink, telemetry, start, remaining_reports, base
            )
        for i, payload in enumerate(round_payloads):
            per_shard[i].append(payload["stats"])
            policy_states[i] = payload.get("policy")
            shard_coverage = payload.get("coverage")
            if shard_coverage:
                coverage.update(CoverageMap.from_dict(shard_coverage))
        reports_so_far = sum(
            len(stats.reports) for parts in per_shard for stats in parts
        )
        if reports_so_far >= config.max_reports:
            break
    wall = time.monotonic() - start

    # Both collection paths return shards in spec order, so the merge
    # is deterministic; the corpus, fed in arrival order, holds the
    # same entry *set* regardless of scheduling.
    shard_stats: list[CampaignStats] = []
    for parts in per_shard:
        merged_shard = CampaignStats.merge(parts)
        # Rounds of one shard ran sequentially, not concurrently.
        merged_shard.wall_seconds = sum(p.wall_seconds for p in parts)
        shard_stats.append(merged_shard)
    merged = CampaignStats.merge(shard_stats, max_reports=config.max_reports)
    if config.workers > 1:
        # Shards ran concurrently: fleet wall-clock, not max shard time.
        merged.wall_seconds = wall

    result = FleetResult(
        merged=merged,
        shards=shard_stats,
        wall_seconds=wall,
        corpus=corpus,
        new_fingerprints=sink.new_fingerprints,
        duplicate_reports=sink.duplicates,
        coverage=coverage,
        arm_schedules=(
            None
            if coverage is None
            else [
                list(state["schedule"]) if state else []
                for state in policy_states
            ]
        ),
    )
    _attach_clusters(result, corpus)
    telemetry.finish(
        _snapshot(shard_stats, config, wall, sink, result.clusters),
        merged,
        wall,
    )
    return result


def _run_one_inprocess(
    spec: ShardSpec,
    config: FleetConfig,
    sink: _CorpusSink,
    telemetry: FleetTelemetry,
    start: float,
    base: Counter,
) -> dict:
    def on_progress(stats: CampaignStats) -> None:
        sink.absorb_remainder(spec.shard_index, stats)
        telemetry.shard_seen(spec.shard_index)
        latest = {spec.shard_index: _progress_payload(stats)}
        telemetry.progress(
            _queue_snapshot(latest, config, start, 0, sink, base), latest
        )

    payload = _run_shard(spec, on_progress=on_progress)
    sink.absorb_remainder(spec.shard_index, payload["stats"])
    telemetry.shard_seen(spec.shard_index, done=True)
    return payload


def _run_pool(
    shards: list[ShardSpec],
    config: FleetConfig,
    sink: _CorpusSink,
    telemetry: FleetTelemetry,
    start: float,
    report_cap: int,
    base: Counter,
) -> list[dict]:
    """Run one round's *shards* in worker processes.  *report_cap* is
    the report bound still remaining after earlier rounds; reaching it
    sets the stop event.  *base* carries earlier rounds' counters so
    progress lines never jump backward at a round barrier."""
    ctx = _mp_context()
    out_queue = ctx.Queue()
    stop_event = ctx.Event()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(spec, out_queue, stop_event),
            daemon=True,
            name=f"fleet-shard-{spec.shard_index}",
        )
        for spec in shards
    ]
    for proc in procs:
        proc.start()

    latest: dict[int, dict] = {}
    results: dict[int, dict] = {}
    errors: dict[int, str] = {}
    dead_since: dict[int, float] = {}
    try:
        while len(results) + len(errors) < len(shards):
            try:
                kind, shard_index, payload = out_queue.get(timeout=0.5)
            except queue_mod.Empty:
                _check_liveness(procs, results, errors, dead_since)
                continue
            if kind == "progress":
                latest[shard_index] = payload
                sink.absorb(shard_index, payload.pop("new_reports", []))
                telemetry.shard_seen(shard_index)
            elif kind == "result":
                results[shard_index] = payload
                latest[shard_index] = _progress_payload(payload["stats"])
                sink.absorb_remainder(shard_index, payload["stats"])
                telemetry.shard_seen(shard_index, done=True)
                # A result that raced the liveness check wins.
                errors.pop(shard_index, None)
                dead_since.pop(shard_index, None)
            else:  # "error"
                errors[shard_index] = payload
            if _reports_so_far(latest) >= report_cap:
                stop_event.set()
            telemetry.progress(
                _queue_snapshot(
                    latest, config, start, len(results), sink, base
                ),
                latest,
                set(results),
            )
    finally:
        stop_event.set()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    if errors:
        detail = "\n".join(
            f"--- shard {idx} ---\n{tb}" for idx, tb in sorted(errors.items())
        )
        raise ReproError(
            f"{len(errors)}/{len(shards)} fleet shards failed:\n{detail}"
        )
    return [results[i] for i in sorted(results)]


def _mp_context():
    """Prefer fork (workers inherit the loaded package; much cheaper
    startup), fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: How long a dead worker may stay silent before its shard is declared
#: lost.  A worker that exits cleanly right after queueing its result
#: can look dead while the queue's feeder thread is still flushing, so
#: a missing result only counts as a failure after this grace window.
_DEAD_GRACE_SECONDS = 5.0


def _check_liveness(procs, results, errors, dead_since) -> None:
    now = time.monotonic()
    for proc in procs:
        shard_index = int(proc.name.rsplit("-", 1)[1])
        if (
            proc.is_alive()
            or shard_index in results
            or shard_index in errors
        ):
            continue
        first_seen_dead = dead_since.setdefault(shard_index, now)
        if now - first_seen_dead < _DEAD_GRACE_SECONDS:
            continue
        errors[shard_index] = (
            f"worker exited with code {proc.exitcode} without reporting "
            "a result (killed or crashed hard)"
        )


def _progress_payload(stats: CampaignStats) -> dict:
    """One shard's live counters, named after the
    :class:`ProgressSnapshot` fields they sum into.  Workers stream this
    dict, and the in-process shard builds the same one."""
    return {
        "tests": stats.tests,
        "skipped": stats.skipped,
        "queries_ok": stats.queries_ok,
        "queries_err": stats.queries_err,
        "reports": len(stats.reports),
        "unique_plans": len(stats.unique_plans),
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def _reports_so_far(latest: dict[int, dict]) -> int:
    return sum(p["reports"] for p in latest.values())


def _queue_snapshot(
    latest: dict[int, dict],
    config: FleetConfig,
    start: float,
    done: int,
    sink: _CorpusSink,
    base: Counter,
) -> ProgressSnapshot:
    """The live fleet snapshot: *base* plus every shard's latest
    progress payload."""
    counters = Counter(base)
    for payload in latest.values():
        counters.update(payload)
    return ProgressSnapshot(
        elapsed=time.monotonic() - start,
        workers=config.workers,
        shards_done=done,
        unique_reports=sink.unique,
        **counters,
    )


def _snapshot(
    shard_stats: list[CampaignStats],
    config: FleetConfig,
    wall: float,
    sink: _CorpusSink,
    clusters: "list | None" = None,
) -> ProgressSnapshot:
    merged = CampaignStats.merge(shard_stats)
    return ProgressSnapshot(
        elapsed=wall,
        workers=config.workers,
        shards_done=config.workers,
        tests=merged.tests,
        skipped=merged.skipped,
        queries_ok=merged.queries_ok,
        queries_err=merged.queries_err,
        reports=len(merged.reports),
        # Newly fingerprinted this run, so a resumed corpus shows how
        # much of the run was already-known bugs.
        unique_reports=sink.unique,
        clusters=None if clusters is None else len(clusters),
        cache_hits=merged.cache_hits,
        cache_misses=merged.cache_misses,
        unique_plans=len(merged.unique_plans),
    )


# ---------------------------------------------------------------------------
# Corpus reduction wired to the fleet's engine configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayReducer:
    """A corpus ``reduce_fn`` that ddmin-reduces a bug by replaying
    candidate statement lists on fresh engines of one configuration.

    Ground truth drives the "still fails" check: a candidate reproduces
    the bug when the report's injected faults all fire again (logic
    bugs) or the engine raises the same failure class (internal error /
    crash / hang).  The reducer names its engine configuration instead
    of holding an engine, so it pickles into every :class:`ShardSpec`
    and each shard reduces the bugs it finds.
    """

    adapter: str
    dialect: str
    buggy: bool

    def __call__(
        self, report: TestReport, cache: EvalCache | None = None
    ) -> list[str] | None:
        """The reduced witness of *report*, or None when replay cannot
        check it.  Candidates replay on *cache*; None replays uncached.

        A fleet shard passes its own cache, warm with the campaign that
        found the bug: the witness's statements are parsed, and SELECTs
        the campaign ran after the same writes are memoized.  Sharing it
        is exact because the campaign's adapter and the candidates'
        adapters are built from one configuration, so they share a
        namespace and start their state-token chains at ``init``.
        """
        target = set(report.fired_faults)
        exceptional = report.kind in ("internal error", "crash", "hang")
        if not target and not exceptional:
            return None  # nothing observable to check against

        # ddmin proposes some candidates more than once (the full
        # witness is checked here and again by reduce_statements), so
        # each distinct candidate replays once per reduction.
        verdicts: dict[tuple[str, ...], bool] = {}

        def still_fails(stmts: list[str]) -> bool:
            key = tuple(stmts)
            if key not in verdicts:
                verdicts[key] = self._replay(stmts, target, exceptional, cache)
            return verdicts[key]

        if not still_fails(report.statements):
            return None  # witness not reproducible by replay; keep as-is
        return reduce_statements(list(report.statements), still_fails)

    def _replay(
        self,
        stmts: list[str],
        target: set[str],
        exceptional: bool,
        cache: EvalCache | None,
    ) -> bool:
        adapter = build_backend(
            self.adapter, dialect=self.dialect, buggy=self.buggy
        )
        if cache is not None:
            adapter.attach_eval_cache(cache)
        fired: set[str] = set()
        for sql in stmts:
            try:
                adapter.execute(sql)
            except SqlError:
                return False  # candidate no longer a valid program
            except (InternalError, EngineCrash, EngineHang):
                fired |= adapter.fired_fault_ids()
                return exceptional and (not target or target <= fired)
            fired |= adapter.fired_fault_ids()
        return not exceptional and bool(target) and target <= fired


def make_replay_reducer(config: FleetConfig) -> ReplayReducer | None:
    """The replay reducer for *config*'s engine, or None when there is
    nothing safe to replay against.

    Real DBMS adapters have no ground truth (the registry's
    ``simulated`` flag is the ground-truth marker), and differential
    configs would need *both* engines to disagree again, which
    single-engine replay cannot check.
    """
    if config.backend_pair is not None:
        return None
    if not get_backend(config.adapter).simulated:
        return None
    return ReplayReducer(config.adapter, config.dialect, config.buggy)
