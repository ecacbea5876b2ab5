"""Sharded campaign orchestration over a multiprocessing worker pool.

Each worker owns a full private stack -- engine, adapter, oracle,
state generator -- built from a picklable :class:`ShardSpec`, runs a
plain serial :class:`~repro.runner.campaign.Campaign`, and streams
progress plus its final :class:`CampaignStats` back over a queue.  The
orchestrator's one collector feeds every streamed report through the
bug corpus for deduplication and builds the fleet snapshot.  The
orchestrator merges shard stats (set-union of plans, max coverage, QPT
recomputed from merged counters) and enforces the fleet-wide
``max_reports`` bound via a shared stop event.  A shard ddmin-reduces
each report new to the fleet as its campaign records it, on the
shard's own cache, so reports reach the corpus with their reduced
witness.

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
from repro.errors import ReproError
from repro.fleet.corpus import BugCorpus, fingerprint_report
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
from repro.obs.status import ProgressSnapshot
from repro.obs.trace import TraceWriter
from repro.oracles_base import Oracle, TestReport
from repro.perf import EvalCache
from repro.runner.campaign import Campaign, CampaignStats
from repro.runner.reducer import reduce_statements, replay_witness

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

#: Fleet-wide sightings at which a fault counts as saturated.
SATURATION_THRESHOLD = 20


@dataclass
class FleetConfig:
    """One campaign's settings, and their only record: every
    :class:`ShardSpec` carries the config whole, :class:`FleetTelemetry`
    reads its trace and status settings, and the CLI builds it once.
    Fully picklable."""

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
    #: Worker-local evaluation caching (repro.perf): each shard owns one
    #: EvalCache, never shared across processes.  On by default because
    #: cache-on campaigns are bit-identical to cache-off ones (gated by
    #: the perf-smoke CI job); ``coddtest ... --no-cache`` turns it off.
    use_cache: bool = True
    #: Structured trace output (``--trace out.jsonl``): the shards hand
    #: their records to the orchestrator with each progress message, and
    #: it appends them and its own events to this file as they arrive.
    #: None traces nothing; tracing never changes deterministic outputs.
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
        # A met report cap or a budget that allows no test runs no
        # test; an empty batch per state never ends.  All must fail
        # here, before any worker starts.
        if self.max_reports < 1:
            raise ValueError(
                f"max_reports must be >= 1, got {self.max_reports}"
            )
        if self.tests_per_state < 1:
            raise ValueError(
                f"tests_per_state must be >= 1, got {self.tests_per_state}"
            )
        if self.n_tests is None and self.seconds is None:
            raise ValueError("specify n_tests and/or seconds")
        if self.n_tests is not None and self.n_tests < 1:
            raise ValueError(f"n_tests must be >= 1, got {self.n_tests}")
        if self.seconds is not None and not self.seconds > 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")
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
    def reports_past_cap(self) -> int:
        """Reports the shards filed past ``max_reports`` before the stop
        reached them.  ``merged.reports`` is capped, but the corpus took
        every report, so the merged count plus this equals the new plus
        the duplicate corpus reports."""
        filed = sum(len(shard.reports) for shard in self.shards)
        return filed - len(self.merged.reports)

    @property
    def arm_summary(self) -> "list[tuple[str, int, int]]":
        """``(arm, pulls, new_plans)`` rows of a guided run, best first."""
        if self.coverage is None:
            return []
        return self.coverage.arm_summary()


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
    """Deterministic shard plan for one round of *config*: each spec
    carries *config* itself plus its shard's seed and budget slice.

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
            config=config,
            shard_index=i,
            seed=derive_round_seed(seeds[i], round_index),
            n_tests=quotas[i],
            seconds=config.seconds if seconds is None else seconds,
            # Each shard stays within the fleet-wide bound; the merge
            # truncates again, and the stop event ends the other shards.
            max_reports=(
                config.max_reports if max_reports is None else max_reports
            ),
            round_index=round_index,
            policy_state=policy_states[i] if policy_states else None,
            coverage_snapshot=snapshot,
            saturated_faults=tuple(sorted(saturated)),
            coverage_source=f"{config.seed}:{i}/{config.workers}{epoch}",
            reducer=reducer,
            known_fingerprints=known_fingerprints,
        )
        for i in range(config.workers)
    ]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _build_adapter(config: FleetConfig):
    if config.backend_pair is not None:
        return build_pair_adapter(
            config.backend_pair, dialect=config.dialect, buggy=config.buggy
        )
    return build_backend(
        config.adapter, dialect=config.dialect, buggy=config.buggy
    )


def _build_policy(spec: ShardSpec) -> GuidedPolicy | None:
    """The shard's generation policy: fresh on round 0, resumed from the
    serialized state afterwards, with the merged fleet snapshot folded
    in either way (fleet-known fingerprints are not novel here)."""
    if spec.config.guidance is None:
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
    post: Callable[[tuple], None],
    should_stop: Callable[[], bool] | None = None,
) -> dict:
    """Run one shard to completion in the current process.

    The shard posts ``("progress", shard_index, payload)`` messages
    through *post*: its live counters plus the reports and the trace
    lines recorded since its last post, at most every
    :data:`PROGRESS_EVERY` seconds and once more when its campaign
    returns or raises.  Returns the shard payload:
    ``{"stats": CampaignStats}`` plus, for guided shards, the serialized
    policy state (coverage map included) the orchestrator merges at the
    next round barrier.
    """
    config = spec.config
    oracle = ORACLE_FACTORIES[config.oracle](**config.oracle_kwargs)
    policy = _build_policy(spec)
    cache = EvalCache() if config.use_cache else None
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
        None
        if config.trace_path is None
        else TraceWriter(shard=spec.shard_index)
    )
    last_post = 0.0
    posted = 0

    def on_progress(stats: CampaignStats, final: bool = False) -> None:
        nonlocal last_post, posted
        now = time.monotonic()
        if not final and now - last_post < PROGRESS_EVERY:
            return
        last_post = now
        new_reports = stats.reports[posted:]
        posted = len(stats.reports)
        payload = {
            **_progress_payload(stats),
            "new_reports": new_reports,
            "trace": [] if tracer is None else tracer.drain(),
        }
        post(("progress", spec.shard_index, payload))

    if tracer is not None:
        tracer.emit("shard_start", seed=spec.seed, round=spec.round_index)
    campaign = Campaign(
        oracle,
        _build_adapter(config),
        seed=spec.seed,
        tests_per_state=config.tests_per_state,
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
    finally:
        # A campaign that raises still posts what it recorded.
        on_progress(campaign.stats, final=True)
    payload: dict = {"stats": stats}
    if policy is not None:
        payload["policy"] = policy.to_state()
    return payload


def _worker_main(spec: ShardSpec, out_queue, stop_event) -> None:
    """Worker process entry point: run the shard, posting its progress
    and then its result (or its traceback) on *out_queue*."""
    try:
        payload = _run_shard(spec, out_queue.put, stop_event.is_set)
    except Exception:
        out_queue.put(("error", spec.shard_index, traceback.format_exc()))
    else:
        out_queue.put(("result", spec.shard_index, payload))


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------


class _Collector:
    """The fleet's one collection path.

    Both shard paths post the same messages here: the in-process shard
    calls :meth:`post` itself, and the pool drains its workers' queue
    into it.  A ``progress`` message's trace lines go to the trace file
    and its reports into the corpus as they arrive, so an interrupted
    fleet keeps every record and bug streamed so far (matching the
    corpus' append-on-add crash safety), and its counters become the
    shard's live counters for the round.  After every message the
    telemetry gets a fresh fleet snapshot, which sums each shard's
    counters over every round it ran.
    """

    def __init__(
        self,
        config: FleetConfig,
        corpus: BugCorpus | None,
        telemetry: FleetTelemetry,
    ) -> None:
        self.config = config
        self.corpus = corpus
        self.telemetry = telemetry
        self.start = time.monotonic()
        #: Guided-fleet round progress (1-based); None when unguided.
        self.round: int | None = None
        self.rounds: int | None = None
        #: Per shard: the final counters of its finished rounds, summed.
        self.earlier = [Counter() for _ in range(config.workers)]
        #: Per shard: its latest counters in the current round.
        self.latest: dict[int, dict] = {}
        #: Per shard: when its last message arrived (liveness).
        self.last_heard: dict[int, float] = {}
        #: The current round's shard payloads, by shard index.
        self.results: dict[int, dict] = {}
        #: New corpus fingerprints of the rounds before this one.
        self.new_fingerprints: list[str] = []
        #: This round's new fingerprints, ``(shard, fingerprint)`` in
        #: arrival order.
        self.found: list[tuple[int, str]] = []
        self.duplicates = 0

    @property
    def reports(self) -> int:
        """Reports the shards filed so far, over every round."""
        return sum(c["reports"] for c in self.earlier) + sum(
            p["reports"] for p in self.latest.values()
        )

    def post(self, message: tuple) -> None:
        """Take one ``progress`` or ``result`` message of a shard."""
        kind, shard, payload = message
        self.last_heard[shard] = time.monotonic()
        if kind == "progress":
            self.telemetry.record(payload.pop("trace", []))
            self._absorb(shard, payload.pop("new_reports"))
            self.latest[shard] = payload
        else:
            self.results[shard] = payload
        self.telemetry.progress(self.snapshot())

    def _absorb(self, shard: int, reports: list[TestReport]) -> None:
        if self.corpus is None:
            return
        for report in reports:
            # The shard that found a report new to the corpus reduced it.
            added = self.corpus.add(
                report,
                shard_index=shard,
                seed=self.config.seed,
                dialect=self.config.dialect,
                reduced=report.reduced_statements,
            )
            if added:
                fingerprint = fingerprint_report(report)
                self.found.append((shard, fingerprint))
                self.telemetry.emit(
                    "cluster_new", fingerprint=fingerprint, kind=report.kind
                )
            else:
                self.duplicates += 1

    def begin_round(self) -> None:
        """A new round: no shard has finished it yet."""
        self.results.clear()

    def end_round(self) -> list[dict]:
        """Close the round; returns its shard payloads in spec order.

        Each shard's final counters join its earlier rounds' sums.  The
        round's new corpus entries are put in shard order, then in each
        shard's own report order, so neither the corpus nor
        ``new_fingerprints`` depends on how messages interleaved.
        """
        for shard, counters in self.latest.items():
            self.earlier[shard].update(counters)
        self.latest.clear()
        for _, fingerprint in sorted(self.found, key=lambda f: f[0]):
            # The round's entries are the corpus' newest: re-inserting
            # them in order moves them to the end in that order.
            self.corpus.entries[fingerprint] = self.corpus.entries.pop(
                fingerprint
            )
            self.new_fingerprints.append(fingerprint)
        self.found.clear()
        return [self.results[i] for i in sorted(self.results)]

    def snapshot(self, **final) -> ProgressSnapshot:
        """The fleet snapshot now.  The done snapshot passes its state,
        its wall time, the merged set-union of plans and the corpus'
        cluster count as *final*."""
        now = time.monotonic()
        totals: Counter = Counter()
        shards: dict[int, dict] = {}
        for shard in sorted(self.last_heard):
            counters = self.earlier[shard] + Counter(self.latest.get(shard))
            totals.update(counters)
            shards[shard] = {
                "tests": counters["tests"],
                "reports": counters["reports"],
                "done": shard in self.results,
                "age_s": round(now - self.last_heard[shard], 3),
            }
        fields = {
            "oracle": self.config.oracle,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "elapsed": now - self.start,
            "shards_done": len(self.results),
            # Newly fingerprinted this run, so a resumed corpus shows
            # how much of the run was already-known bugs.
            "unique_reports": (
                None
                if self.corpus is None
                else len(self.new_fingerprints) + len(self.found)
            ),
            "round": self.round,
            "rounds": self.rounds,
            "shards": shards,
            **totals,
            **final,
        }
        return ProgressSnapshot(**fields)


def run_fleet(
    config: FleetConfig,
    corpus: BugCorpus | None = None,
    coverage: CoverageMap | None = None,
    telemetry: FleetTelemetry | None = None,
) -> FleetResult:
    """Run a sharded campaign and merge the results.

    *corpus* (optional) deduplicates reports across shards and past
    invocations (first-seen entries are stamped with shard/seed/dialect
    provenance); *coverage* (optional, guided fleets) seeds the
    plan-coverage map -- pass a loaded checkpoint to resume guidance
    across invocations; *telemetry* (optional) carries the progress
    printer and is where the trace (``config.trace_path``) and the
    status endpoint (``config.status_port``) are served from; a silent
    one is built when omitted.
    The result is deterministic for a given ``(seed, workers, budget)``:
    shard stats merge in spec order, and the corpus holds the same
    entries in the same order regardless of scheduling.  One collector
    takes both shard paths' progress messages and builds the one fleet
    snapshot that the progress line, the status endpoint and the
    trace's ``run_finish`` record show.  Telemetry never feeds back into
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
        telemetry = FleetTelemetry()
    try:
        telemetry.open(config)
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
    coverage: CoverageMap, corpus: BugCorpus | None
) -> frozenset[str]:
    """The union of both saturation signals: faults the coverage map has
    counted :data:`SATURATION_THRESHOLD` times, and faults whose triage
    clusters have accumulated as many sightings in the corpus."""
    saturated = set(coverage.saturated_faults(SATURATION_THRESHOLD))
    if corpus is not None:
        from repro.triage.cluster import cluster_corpus, saturated_fault_ids

        clusters = cluster_corpus(corpus.entries.values())
        saturated |= saturated_fault_ids(clusters, SATURATION_THRESHOLD)
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
    collector = _Collector(config, corpus, telemetry)
    rounds = _effective_rounds(config)
    policy_states: list[dict | None] = [None] * config.workers
    per_shard: list[list[CampaignStats]] = [[] for _ in range(config.workers)]
    known_saturated: set[str] = set()
    remaining = config.n_tests
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
            saturated = _saturated_fault_ids(coverage, corpus)
            for fault in sorted(saturated - known_saturated):
                telemetry.emit("cluster_saturated", fault=fault)
            known_saturated |= saturated
            telemetry.emit(
                "round_barrier",
                round=round_index,
                rounds=rounds,
                saturated=len(saturated),
                plans=len(coverage.seen_plans()),
            )
            collector.round, collector.rounds = round_index + 1, rounds
        specs = build_shards(
            config,
            round_index,
            n_tests=round_tests,
            seconds=round_seconds,
            policy_states=policy_states,
            coverage=coverage,
            saturated=saturated,
            epoch=epoch,
            # The fleet-wide report cap is cumulative across rounds:
            # each round only gets the remainder, so a guided fleet
            # overshoots by at most the same race window as an
            # unguided one.
            max_reports=max(0, config.max_reports - collector.reports),
            reducer=reducer,
            known_fingerprints=(
                frozenset() if reducer is None else frozenset(corpus.entries)
            ),
        )
        collector.begin_round()
        if config.workers == 1:
            payload = _run_shard(specs[0], collector.post)
            collector.post(("result", 0, payload))
        else:
            _run_pool(specs, collector)
        for i, payload in enumerate(collector.end_round()):
            per_shard[i].append(payload["stats"])
            policy_states[i] = payload.get("policy")
            if policy_states[i] is not None:
                coverage.update(
                    CoverageMap.from_dict(policy_states[i]["coverage"])
                )
        if collector.reports >= config.max_reports:
            break
    wall = time.monotonic() - collector.start

    # Both shard paths return payloads in spec order and the collector
    # orders each round's new corpus entries by shard, so the merge and
    # the corpus are the same regardless of scheduling.
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
        new_fingerprints=collector.new_fingerprints,
        duplicate_reports=collector.duplicates,
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
        collector.snapshot(
            state="done",
            elapsed=wall,
            unique_plans=len(merged.unique_plans),
            clusters=None if result.clusters is None else len(result.clusters),
        )
    )
    return result


def _run_pool(shards: list[ShardSpec], collector: _Collector) -> None:
    """Run one round's *shards* in worker processes and drain their
    messages into *collector*.  Reaching the fleet's report cap sets the
    stop event."""
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

    results = collector.results
    errors: dict[int, str] = {}
    dead_since: dict[int, float] = {}
    try:
        while len(results) + len(errors) < len(shards):
            try:
                message = out_queue.get(timeout=0.5)
            except queue_mod.Empty:
                _check_liveness(procs, results, errors, dead_since)
                continue
            kind, shard_index, payload = message
            if kind == "error":
                errors[shard_index] = payload
                continue
            collector.post(message)
            if kind == "result":
                # A result that raced the liveness check wins.
                errors.pop(shard_index, None)
                dead_since.pop(shard_index, None)
            if collector.reports >= collector.config.max_reports:
                stop_event.set()
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
    :class:`ProgressSnapshot` fields they sum into: the body of every
    ``progress`` message."""
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


# ---------------------------------------------------------------------------
# Corpus reduction wired to the fleet's engine configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayReducer:
    """A corpus ``reduce_fn`` that ddmin-reduces a bug by replaying
    candidate statement lists on fresh engines of one configuration.

    Ground truth drives the "still fails" check, triage's
    :func:`~repro.runner.reducer.replay_witness`: the report's faults
    all fire again (logic bugs), or they raise the same failure class.
    The reducer names its engine configuration instead of holding an
    engine, so it pickles into every :class:`ShardSpec` and each shard
    reduces the bugs it finds.
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
        found the bug, so the witness's statements are parse hits.  The
        candidates also share its statement memo with each other, the
        one traffic that repeats a SELECT after the same writes: they
        are fresh adapters of one configuration, so equal write
        prefixes reach equal state tokens.
        """
        target = set(report.fired_faults)
        if not target and report.kind == "logic":
            return None  # nothing observable to check against

        # ddmin proposes some candidates more than once (the full
        # witness is checked here and again by reduce_statements), so
        # each distinct candidate replays once per reduction.
        verdicts: dict[tuple[str, ...], bool] = {}

        def still_fails(stmts: list[str]) -> bool:
            key = tuple(stmts)
            if key not in verdicts:
                adapter = build_backend(
                    self.adapter, dialect=self.dialect, buggy=self.buggy
                )
                if cache is not None:
                    adapter.attach_replay_memo(cache)
                verdicts[key] = replay_witness(
                    adapter, stmts, report.kind, target, pair=False
                )[0]
            return verdicts[key]

        if not still_fails(report.statements):
            return None  # witness not reproducible by replay; keep as-is
        return reduce_statements(list(report.statements), still_fails)


def make_replay_reducer(config: FleetConfig) -> ReplayReducer | None:
    """The replay reducer for *config*'s engine, or None when there is
    nothing safe to replay against.

    Real DBMS adapters have no ground truth (the registry's
    ``simulated`` flag is the ground-truth marker), and differential
    configs are not reduced yet, although ``replay_witness`` can check
    that a candidate still makes the pair diverge.
    """
    if config.backend_pair is not None:
        return None
    if not get_backend(config.adapter).simulated:
        return None
    return ReplayReducer(config.adapter, config.dialect, config.buggy)
