"""Sharded campaign orchestration over a multiprocessing worker pool.

Each worker owns a full private stack -- engine, adapter, oracle,
state generator -- built from a picklable :class:`ShardSpec`, runs a
plain serial :class:`~repro.runner.campaign.Campaign`, and streams
progress plus its final :class:`CampaignStats` back over a queue.  The
orchestrator's one collector feeds every streamed report through the
bug corpus for deduplication and builds the fleet snapshot.  The
orchestrator merges shard stats (set-union of plans, max coverage, QPT
recomputed from merged counters) and enforces the fleet-wide
``max_reports`` bound via a shared stop event.

A reducing fleet ddmin-reduces each report new to its shard as a job:
the report plus the ASTs the shard's parse memo holds for it, run on a
fresh cache primed with them, whose counters are credited to the
finding shard.  A witness is a pure function of its job, so it does not
matter where the job runs.  Under a test budget a pool worker posts its
jobs, and the orchestrator hands each one to whichever worker has
finished its own tests, until the round's last job is reduced; under a
time budget, and in a 1-worker fleet, the shard reduces each report as
it records it.

Every fleet runs one loop of rounds, a multi-worker fleet on one pool
of workers forked when the fleet starts.  An unguided fleet is the
one-round case: no policy, no coverage map, no barrier events.  A
guided fleet splits its budget into several rounds and exchanges
coverage snapshots at the barriers between them.

A 1-worker fleet runs in-process through the same shard code path, so
``run_fleet(workers=1, seed=S)`` bit-matches the serial
``run_campaign(seed=S)`` (modulo wall-clock timing).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import traceback
from collections import Counter, deque
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
from repro.obs.trace import TraceWriter, format_record
from repro.oracles_base import Oracle, TestReport
from repro.perf import CacheStats, EvalCache
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


@dataclass
class _ReduceJob:
    """One report for ddmin: everything a worker needs to reduce it."""

    #: The shard that filed the report, credited with the job's work.
    finder: int
    #: The report's position in the finder's stats of the round.
    index: int
    fingerprint: str
    report: TestReport
    #: The ASTs the finder's parse memo held for the report's statements.
    asts: dict


def _reduce(
    job: _ReduceJob, reducer: "ReplayReducer", cached: bool
) -> tuple[list[str] | None, dict, dict]:
    """Run *job* on a fresh cache primed with its ASTs (on none unless
    *cached*).  Returns the reduced witness, the cache's counters and
    the fields of the job's ``reduce`` trace record."""
    cache = None
    if cached:
        cache = EvalCache()
        for sql, ast in job.asts.items():
            cache.prime_parse(sql, ast)
    start = time.perf_counter()
    witness, candidates = reducer.reduce(job.report, cache)
    record = {
        "finder": job.finder,
        "fingerprint": job.fingerprint,
        "statements": len(job.report.statements),
        "reduced": None if witness is None else len(witness),
        "candidates": candidates,
        "seconds": round(time.perf_counter() - start, 6),
    }
    return witness, {} if cache is None else cache.stats.to_dict(), record


def _run_shard(
    spec: ShardSpec,
    post: Callable[[tuple], None],
    should_stop: Callable[[], bool] | None = None,
    next_job: Callable[[], bytes | None] | None = None,
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

    A reducing shard makes a :class:`_ReduceJob` of each report new to
    it and posts each job's outcome as ``("reduced", shard_index,
    payload)``.  A pool worker (*next_job* given) under a test budget
    posts the job, pickled, as ``("job", ...)`` right after a progress
    message that carries its report, and after its last test posts
    ``("tests_done", ...)`` and reduces the pickled jobs *next_job*
    returns, from any shard, until it returns None.  Otherwise the
    shard reduces the report at once.  Either way the reductions run
    inside ``Campaign.run``.
    """
    config = spec.config
    oracle = ORACLE_FACTORIES[config.oracle](**config.oracle_kwargs)
    policy = _build_policy(spec)
    cache = EvalCache() if config.use_cache else None
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

    on_report = on_finish = None
    if spec.reducer is not None:
        skip = set(spec.known_fingerprints)
        # Under a time budget no worker finishes early, and the
        # in-process shard has no other worker, so posting a job would
        # only move its work past the shard's own tests.
        posting = next_job is not None and spec.seconds is None

        def run_job(job: _ReduceJob) -> None:
            witness, counters, record = _reduce(
                job, spec.reducer, cache is not None
            )
            job.report.reduced_statements = witness
            # The record rides this message alone: the tracer's other
            # lines wait for the progress message their counters go in.
            trace = []
            if tracer is not None:
                trace.append(
                    format_record(
                        "reduce", time.time(), spec.shard_index, record
                    )
                    + "\n"
                )
            payload = {
                "finder": job.finder,
                "index": job.index,
                "fingerprint": job.fingerprint,
                "witness": witness,
                "cache": counters,
                "trace": trace,
            }
            post(("reduced", spec.shard_index, payload))

        def on_report(report: TestReport) -> None:
            fingerprint = fingerprint_report(report)
            if fingerprint in skip:
                return
            skip.add(fingerprint)
            job = _ReduceJob(
                spec.shard_index,
                len(campaign.stats.reports) - 1,
                fingerprint,
                report,
                {} if cache is None else cache.parsed(report.statements),
            )
            if not posting:
                run_job(job)
                return
            # The collector must hold the report before its witness.
            on_progress(campaign.stats, final=True)
            # Pickled here: the orchestrator relays the job unread.
            post(("job", spec.shard_index, pickle.dumps(job)))

        if posting:

            def on_finish() -> None:
                post(("tests_done", spec.shard_index, None))
                for blob in iter(next_job, None):
                    run_job(pickle.loads(blob))

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
        on_finish=on_finish,
        policy=policy,
        cache=cache,
        tracer=tracer,
    )
    try:
        stats = campaign.run(n_tests=spec.n_tests, seconds=spec.seconds)
    finally:
        # A campaign that raises still posts what it recorded.
        on_progress(campaign.stats, final=True)
    payload: dict = {"stats": stats}
    if policy is not None:
        payload["policy"] = policy.to_state()
    return payload


#: How often (seconds) a waiting worker checks that its orchestrator
#: still runs.
_POLL_SECONDS = 0.5


class _Orphaned(BaseException):
    """The worker's orchestrator is gone.  Not an :class:`Exception`,
    so no shard error handler catches it."""


def _worker_main(inbox, out_queue, stop_event) -> None:
    """Worker process entry point: run each :class:`ShardSpec` that
    arrives on *inbox* (the read end of a pipe), posting the shard's
    messages and then its result (or its traceback) on *out_queue*,
    until the inbox brings None.  After its own tests, the shard
    reduces the jobs the inbox brings until a None ends the round.

    The worker notes its parent, the orchestrator, when it starts.  If
    the orchestrator dies, the campaign stops at its next test, a wait
    on the inbox ends within :data:`_POLL_SECONDS`, and the worker
    exits without flushing *out_queue*, which nobody reads any more.
    """
    parent = os.getppid()

    def receive():
        while not inbox.poll(_POLL_SECONDS):
            if os.getppid() != parent:
                raise _Orphaned
        return inbox.recv()

    def should_stop() -> bool:
        return stop_event.is_set() or os.getppid() != parent

    try:
        for spec in iter(receive, None):
            try:
                payload = _run_shard(spec, out_queue.put, should_stop, receive)
            except Exception:
                out_queue.put(
                    ("error", spec.shard_index, traceback.format_exc())
                )
            else:
                out_queue.put(("result", spec.shard_index, payload))
    except _Orphaned:
        out_queue.cancel_join_thread()


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
    shard's live counters for the round.  A ``reduced`` message's
    witness goes to the corpus entry of its report, and the job's cache
    counters are credited to the shard that found the bug, whichever
    worker reduced it: in that shard's live counters, in its
    ``result``, and in the ``shard_finish`` record the collector writes
    from the result.  After every message the trace gets a ``progress``
    record of the live counters of the shard it changed (naming that
    shard in its payload, so the record does not make the shard look
    alive), and the telemetry a fresh fleet snapshot, which sums each
    shard's counters over every round it ran.
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
        #: The current round's index (0-based), for ``shard_finish``.
        self.round_index = 0
        #: Per shard: the final counters of its finished rounds, summed.
        self.earlier = [Counter() for _ in range(config.workers)]
        #: Per shard: its latest counters in the current round.
        self.latest: dict[int, dict] = {}
        #: Per shard: the cache counters of the jobs it found this
        #: round, whichever worker ran them.
        self.credit = [Counter() for _ in range(config.workers)]
        #: Per shard: ``(report index, reduced witness)`` of the jobs
        #: it found this round.
        self.witnesses: dict[int, list[tuple[int, list[str] | None]]] = {}
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
        """Take one ``progress``, ``reduced`` or ``result`` message of a
        shard."""
        kind, shard, payload = message
        self.last_heard[shard] = time.monotonic()
        if kind == "progress":
            self.telemetry.record(payload.pop("trace", []))
            self._absorb(shard, payload.pop("new_reports"))
            self.latest[shard] = payload
            self._trace_counters(shard)
        elif kind == "reduced":
            self.telemetry.record(payload["trace"])
            finder = payload["finder"]
            self.credit[finder].update(payload["cache"])
            self.witnesses.setdefault(finder, []).append(
                (payload["index"], payload["witness"])
            )
            if self.corpus is not None:
                self.corpus.attach(
                    payload["fingerprint"], finder, payload["witness"]
                )
            self._trace_counters(finder)
        else:
            self._finish_shard(shard, payload)
        self.telemetry.progress(self.snapshot())

    def _live(self, shard: int) -> Counter:
        """Shard *shard*'s counters in the current round, with the cache
        counters of the jobs it found."""
        counters = Counter(self.latest.get(shard))
        credit = CacheStats(**self.credit[shard])
        counters.update(cache_hits=credit.hits, cache_misses=credit.misses)
        return counters

    def _trace_counters(self, shard: int) -> None:
        live = self._live(shard)
        self.telemetry.emit(
            "progress",
            for_shard=shard,
            tests=live["tests"],
            unique_plans=live["unique_plans"],
            cache_hits=live["cache_hits"],
            cache_misses=live["cache_misses"],
        )

    def _finish_shard(self, shard: int, payload: dict) -> None:
        """A shard's round result: credit it with its jobs' witnesses
        and cache counters, then write its ``shard_finish`` record."""
        stats: CampaignStats = payload["stats"]
        for index, witness in self.witnesses.pop(shard, ()):
            stats.reports[index].reduced_statements = witness
        for key, value in self.credit[shard].items():
            stats.cache_stats[key] = stats.cache_stats.get(key, 0) + value
        self.telemetry.emit(
            "shard_finish",
            shard=shard,
            tests=stats.tests,
            skipped=stats.skipped,
            reports=len(stats.reports),
            round=self.round_index,
            phases=stats.phase_stats,
            cache=stats.cache_stats,
            unique_plans=len(stats.unique_plans),
        )
        self.results[shard] = payload

    def _absorb(self, shard: int, reports: list[TestReport]) -> None:
        if self.corpus is None:
            return
        for report in reports:
            # A report posted as a ddmin job gets its witness later
            # (attach).
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

    def begin_round(self, round_index: int) -> None:
        """A new round: no shard has finished it yet."""
        self.round_index = round_index
        self.results.clear()

    def end_round(self) -> list[dict]:
        """Close the round; returns its shard payloads in spec order.

        Each shard's final counters, its jobs' cache counters included,
        join its earlier rounds' sums.  The round's new corpus entries
        are put in shard order, then in each shard's own report order,
        so neither the corpus nor ``new_fingerprints`` depends on how
        messages interleaved.
        """
        for shard in self.latest:
            self.earlier[shard].update(self._live(shard))
        self.latest.clear()
        for credit in self.credit:
            credit.clear()
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
            counters = self.earlier[shard] + self._live(shard)
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

    The fleet reduces first-seen bugs itself, so the corpus'
    ``reduce_fn`` must be None or ``make_replay_reducer(config)``;
    anything else raises ValueError.
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
    pool = None
    try:
        telemetry.open(config)
        if config.workers > 1:
            pool = _Pool(config.workers)
        return _run_rounds(config, corpus, telemetry, coverage, pool)
    finally:
        if pool is not None:
            pool.close()
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
    pool: _Pool | None,
) -> FleetResult:
    """The fleet loop: the budget is split into rounds, each round's
    shards run to completion on *pool* (in this process for one
    worker), then their results merge.

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
        collector.begin_round(round_index)
        if pool is None:
            payload = _run_shard(specs[0], collector.post)
            collector.post(("result", 0, payload))
        else:
            pool.run_round(specs, collector)
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


class _Pool:
    """The fleet's worker processes, forked once and used every round.

    Worker *i* runs shard *i* of each round.  Each worker has an inbox,
    a pipe only the orchestrator writes: a round's spec, then, once the
    worker's own tests are done, the ddmin jobs the orchestrator hands
    it, one at a time, and a None when the round's last job is reduced.
    The orchestrator writes only to a worker that waits for the next
    message, so a write never waits long, and a pipe needs no feeder
    thread (a queue's raised the orchestrator's peak RSS by about 0.6
    MiB).  All workers post on one queue, which :meth:`run_round`
    drains into the collector.  Reaching the fleet's report cap sets
    the stop event, which each round clears.
    """

    def __init__(self, workers: int) -> None:
        ctx = _mp_context()
        self.out_queue = ctx.Queue()
        self.stop_event = ctx.Event()
        self.inboxes = []
        self.procs = []
        for i in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(reader, self.out_queue, self.stop_event),
                daemon=True,
                name=f"fleet-shard-{i}",
            )
            proc.start()
            # Only the worker reads its inbox, so writing to a dead
            # worker's fails at once instead of blocking.
            reader.close()
            self.inboxes.append(writer)
            self.procs.append(proc)

    def _send(self, worker: int, message) -> None:
        try:
            self.inboxes[worker].send(message)
        except BrokenPipeError:
            pass  # a dead worker; the liveness check reports its shard

    def run_round(
        self, shards: list[ShardSpec], collector: _Collector
    ) -> None:
        """Run one round's *shards* and drain the workers' messages into
        *collector* until every shard has returned.

        A ``job`` message joins the queue of jobs, and the job goes to
        the worker that has waited longest with its tests done and no
        job in hand.  Once every shard's tests are done and every job
        has come back, each waiting worker gets the None that ends its
        round.  A failed shard counts as done, so the other shards still
        return, and then the round raises :class:`ReproError`.
        """
        self.stop_event.clear()
        for i, spec in enumerate(shards):
            self._send(i, spec)
        results = collector.results
        errors: dict[int, str] = {}
        dead_since: dict[int, float] = {}
        jobs: deque[bytes] = deque()
        tests_done: set[int] = set()
        waiting: deque[int] = deque()
        holding: set[int] = set()
        while len(results) + len(errors) < len(shards):
            try:
                message = self.out_queue.get(timeout=0.5)
            except queue_mod.Empty:
                _check_liveness(self.procs, results, errors, dead_since)
                kind, shard, payload = None, None, None
            else:
                kind, shard, payload = message
            if kind == "error":
                errors[shard] = payload
            elif kind == "job":
                jobs.append(payload)
            elif kind == "tests_done" or (
                kind == "reduced" and shard in holding
            ):
                # The worker waits for a job (a shard under a time
                # budget also posts "reduced", for its own reports).
                tests_done.add(shard)
                holding.discard(shard)
                waiting.append(shard)
            # Hand out work before the collector's bookkeeping, so no
            # worker waits on it.
            for worker in list(waiting):
                if worker in errors:
                    waiting.remove(worker)
            holding -= set(errors)
            while jobs and waiting:
                worker = waiting.popleft()
                holding.add(worker)
                self._send(worker, jobs.popleft())
            if (
                not jobs
                and not holding
                and len(tests_done | set(errors)) == len(shards)
            ):
                while waiting:
                    self._send(waiting.popleft(), None)
            if kind in ("progress", "reduced", "result"):
                collector.post(message)
                if kind == "result":
                    # A result that raced the liveness check wins.
                    errors.pop(shard, None)
                    dead_since.pop(shard, None)
                if collector.reports >= collector.config.max_reports:
                    self.stop_event.set()

        if errors:
            detail = "\n".join(
                f"--- shard {idx} ---\n{tb}" for idx, tb in sorted(errors.items())
            )
            raise ReproError(
                f"{len(errors)}/{len(shards)} fleet shards failed:\n{detail}"
            )

    def close(self) -> None:
        """End every worker: a running campaign stops at its next test,
        and a worker still in a round ends it and then exits."""
        self.stop_event.set()
        for worker in range(len(self.procs)):
            self._send(worker, None)  # ends a round it may still drain
            self._send(worker, None)  # ends the worker
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()
        for inbox in self.inboxes:
            inbox.close()


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
    engine, so it pickles into every :class:`ShardSpec` and any worker
    can reduce any shard's report.
    """

    adapter: str
    dialect: str
    buggy: bool

    def __call__(
        self, report: TestReport, cache: EvalCache | None = None
    ) -> list[str] | None:
        """The reduced witness of *report*, or None when replay cannot
        check it: :meth:`reduce` without its count."""
        return self.reduce(report, cache)[0]

    def reduce(
        self, report: TestReport, cache: EvalCache | None = None
    ) -> tuple[list[str] | None, int]:
        """The reduced witness of *report* (None when replay cannot
        check it) and the number of distinct candidates replayed.
        Candidates replay on *cache*; None replays uncached.

        A fleet passes each job a fresh cache primed with the ASTs the
        finding shard's parse memo held for the report, so the
        witness's statements are parse hits as they were in that
        shard.  The candidates also share its statement memo with each
        other, the one traffic that repeats a SELECT after the same
        writes: they are fresh adapters of one configuration, so equal
        write prefixes reach equal state tokens.
        """
        target = set(report.fired_faults)
        if not target and report.kind == "logic":
            return None, 0  # nothing observable to check against

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
            # Not reproducible by replay; keep the witness as it is.
            return None, len(verdicts)
        witness = reduce_statements(list(report.statements), still_fails)
        return witness, len(verdicts)


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
