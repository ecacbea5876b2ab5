"""Test campaigns (paper Section 4 methodology).

A campaign repeatedly (1) generates a random database state and (2) runs
a batch of oracle tests against it -- the loop of Figure 1.  It collects
the Table 3 metrics:

* **tests** -- successfully executed test cases,
* **successful / unsuccessful queries** -- queries that ran vs. raised
  expected errors,
* **QPT** -- successful queries per successful test,
* **unique query plans** -- distinct fingerprints of each test's most
  complex query,
* **branch coverage** -- engine decision points exercised (MiniDB only),
* **bug reports** with ground-truth fault attribution (MiniDB only).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.adapters.base import EngineAdapter
from repro.errors import ReproError, SqlError
from repro.generator.state_gen import StateGenerator
from repro.obs.phases import PhaseProfiler, merge_phase_totals
from repro.oracles_base import Oracle, TestReport


@dataclass
class CampaignStats:
    """Aggregated campaign results."""

    oracle: str
    tests: int = 0
    skipped: int = 0
    queries_ok: int = 0
    queries_err: int = 0
    states: int = 0
    wall_seconds: float = 0.0
    branch_coverage: float = 0.0
    unique_plans: set[str] = field(default_factory=set)
    reports: list[TestReport] = field(default_factory=list)
    #: Hit/miss counters of the worker-local evaluation cache (see
    #: :mod:`repro.perf`); empty when the campaign ran uncached.
    #: Deliberately absent from :meth:`signature`: the signature asserts
    #: cache-on/off equivalence, these counters are what differs.
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Per-phase wall-clock breakdown (``{phase: {"calls", "seconds"}}``,
    #: see :mod:`repro.obs.phases`).  Wall-clock only, so -- like
    #: ``wall_seconds`` and ``cache_stats`` -- it is excluded from
    #: :meth:`signature`.
    phase_stats: dict = field(default_factory=dict)

    @classmethod
    def merge(
        cls,
        parts: Iterable["CampaignStats"],
        max_reports: int | None = None,
    ) -> "CampaignStats":
        """Combine per-shard stats into fleet-wide stats.

        Counters sum, unique plans union, branch coverage takes the max
        (each shard observes the same engine code), QPT is recomputed
        from the merged counters by the :attr:`qpt` property, and
        ``wall_seconds`` is the max (shards run concurrently).  When
        *max_reports* is given the merged report list is truncated to
        it, so a merged campaign honours the same bound as a serial one.
        """
        parts = list(parts)
        names = {p.oracle for p in parts}
        merged = cls(oracle=names.pop() if len(names) == 1 else "mixed")
        for part in parts:
            merged.tests += part.tests
            merged.skipped += part.skipped
            merged.queries_ok += part.queries_ok
            merged.queries_err += part.queries_err
            merged.states += part.states
            merged.wall_seconds = max(merged.wall_seconds, part.wall_seconds)
            merged.branch_coverage = max(
                merged.branch_coverage, part.branch_coverage
            )
            merged.unique_plans |= part.unique_plans
            merged.reports.extend(part.reports)
            for key, value in part.cache_stats.items():
                merged.cache_stats[key] = merged.cache_stats.get(key, 0) + value
            merged.phase_stats = merge_phase_totals(
                merged.phase_stats, part.phase_stats
            )
        if max_reports is not None:
            del merged.reports[max_reports:]
        return merged

    def signature(self) -> dict:
        """Deterministic fields only -- everything except wall-clock
        measurements.  Two campaigns with the same seed and budget must
        produce equal signatures."""
        return {
            "oracle": self.oracle,
            "tests": self.tests,
            "skipped": self.skipped,
            "queries_ok": self.queries_ok,
            "queries_err": self.queries_err,
            "states": self.states,
            "branch_coverage": self.branch_coverage,
            "unique_plans": sorted(self.unique_plans),
            "reports": [
                (r.oracle, r.kind, tuple(r.statements), sorted(r.fired_faults))
                for r in self.reports
            ],
        }

    @property
    def qpt(self) -> float:
        """Queries per (successful) test -- paper Table 3."""
        if self.tests == 0:
            return 0.0
        return self.queries_ok / self.tests

    @property
    def detected_fault_ids(self) -> frozenset[str]:
        """Ground-truth: faults implicated in at least one report."""
        found: set[str] = set()
        for report in self.reports:
            found |= report.fired_faults
        return frozenset(found)

    @property
    def bug_reports_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for report in self.reports:
            out[report.kind] = out.get(report.kind, 0) + 1
        return out

    @property
    def tests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.tests / self.wall_seconds

    def _cache_totals(self):
        """The canonical aggregate view of ``cache_stats`` (which is
        exactly a ``CacheStats.to_dict()``), so hit/miss accounting has
        one definition."""
        from repro.perf.cache import CacheStats

        return CacheStats(**self.cache_stats)

    @property
    def cache_hits(self) -> int:
        return self._cache_totals().hits

    @property
    def cache_misses(self) -> int:
        return self._cache_totals().misses

    @property
    def cache_hit_rate(self) -> float:
        """Overall cache hit fraction in [0, 1] (0.0 when uncached)."""
        return self._cache_totals().hit_rate


class Campaign:
    """Reusable campaign driver."""

    def __init__(
        self,
        oracle: Oracle,
        adapter: EngineAdapter,
        seed: int = 0,
        tests_per_state: int = 25,
        max_reports: int = 1000,
        max_state_failures: int = 200,
        should_stop: Callable[[], bool] | None = None,
        on_progress: Callable[[CampaignStats], None] | None = None,
        on_report: Callable[[TestReport], None] | None = None,
        on_finish: Callable[[], None] | None = None,
        policy=None,
        cache=None,
        tracer=None,
    ) -> None:
        # An empty batch per state would generate states forever.
        if tests_per_state < 1:
            raise ValueError(
                f"tests_per_state must be >= 1, got {tests_per_state}"
            )
        self.oracle = oracle
        self.adapter = adapter
        #: Worker-local evaluation cache (:class:`repro.perf.EvalCache`)
        #: whose parse memo the adapter uses for the campaign's
        #: lifetime; None runs the historical uncached path.  A campaign
        #: runs almost every SELECT once, so it leaves the statement
        #: memo to ddmin (see ``on_report``).  Campaign results are
        #: bit-identical either way (asserted by tests/perf and the
        #: perf-smoke CI gate); only wall-clock and the cache_stats
        #: counters differ.
        self.cache = cache
        if cache is not None:
            adapter.attach_eval_cache(cache)
        self.rng = random.Random(seed)
        self.tests_per_state = tests_per_state
        self.state_gen = StateGenerator(
            self.rng,
            strict_typing=adapter.strict_typing,
            portable=adapter.portable_generation,
        )
        self.max_reports = max_reports
        self.max_state_failures = max_state_failures
        #: External kill switch, polled with the budget (fleet early-stop).
        self.should_stop = should_stop
        #: Called after every batch of tests with the live stats; must not
        #: mutate them.  Used by the fleet workers to stream progress.
        self.on_progress = on_progress
        #: Called with each report as it is recorded, before the next
        #: test; may annotate the report but must not change control
        #: flow.  A fleet shard makes a ddmin job of each report new to
        #: it here, from the ASTs in the campaign's parse memo, and
        #: runs it now or, in a worker pool, posts it (see
        #: ``on_finish``).
        self.on_report = on_report
        #: Called once after the last test, before the stats are
        #: finished, so its time counts in this ``run``: a pool worker
        #: reduces posted ddmin jobs of any shard here, until the
        #: round's last job is reduced.
        self.on_finish = on_finish
        #: Optional generation policy (duck-typed, e.g.
        #: :class:`repro.guidance.GuidedPolicy`): ``begin_test()``
        #: returns an arm whose knobs are applied to the oracle before
        #: each test, ``observe(outcome)`` accounts the result.  None
        #: keeps the historical uniform-random behaviour bit-for-bit.
        self.policy = policy
        #: Always-on phase profiler (two ``perf_counter`` reads per scope
        #: are noise next to a parse or an execution).  It replaces the
        #: default one of this adapter and oracle only, so replays on
        #: other adapters (ddmin) stay out of ``stats.phase_stats``.
        #: Timings never reach the signature.
        self.profiler = PhaseProfiler()
        adapter.attach_profiler(self.profiler)
        oracle.profiler = self.profiler
        #: Optional :class:`repro.obs.TraceWriter` receiving structured
        #: test/state/bug events; None traces nothing.  Tracing never
        #: influences control flow.
        self.tracer = tracer
        self.stats = CampaignStats(oracle=oracle.name)

    def run(
        self, n_tests: int | None = None, seconds: float | None = None
    ) -> CampaignStats:
        """Run until *n_tests* successful tests or *seconds* elapse."""
        if n_tests is None and seconds is None:
            raise ValueError("specify n_tests and/or seconds")
        engine = getattr(self.adapter, "engine", None)
        if engine is not None:
            engine.coverage.reset()
        start = time.perf_counter()
        self._run_tests(n_tests, seconds, start)
        if self.on_finish is not None:
            self.on_finish()
        return self._finish(start)

    # -- internals ---------------------------------------------------------------

    def _run_tests(
        self, n_tests: int | None, seconds: float | None, start: float
    ) -> None:
        """Generate states and run tests until the budget is done."""
        state_failures = 0
        while True:
            # Checked here too so that a seconds= budget terminates
            # promptly even when every state fails or every test skips
            # (skipped tests never advance stats.tests).
            if self._budget_done(n_tests, seconds, start):
                return
            if not self._new_state():
                state_failures += 1
                if state_failures >= self.max_state_failures:
                    raise ReproError(
                        f"state generation failed {state_failures} times in "
                        f"a row; the generator cannot produce a usable state "
                        f"for adapter {self.adapter.name!r}"
                    )
                continue
            state_failures = 0
            for _ in range(self.tests_per_state):
                if self._budget_done(n_tests, seconds, start):
                    return
                self._one_test()
            if self.on_progress is not None:
                if self.cache is not None:
                    # Keep the wall-clock-only counters live for progress
                    # consumers (the fleet streams them to the printer and
                    # status board between batches).
                    self.stats.cache_stats = self.cache.stats.to_dict()
                self.on_progress(self.stats)

    def _budget_done(
        self, n_tests: int | None, seconds: float | None, start: float
    ) -> bool:
        if n_tests is not None and self.stats.tests >= n_tests:
            return True
        if seconds is not None and time.perf_counter() - start >= seconds:
            return True
        if self.should_stop is not None and self.should_stop():
            return True
        return len(self.stats.reports) >= self.max_reports

    def _new_state(self) -> bool:
        t0 = self.profiler.begin()
        try:
            schema = self.state_gen.generate(self.adapter)
        except SqlError:
            return False
        except ReproError:
            # Injected fault fired during state generation; retry.
            return False
        finally:
            self.profiler.end("generate", t0)
        if not schema.base_tables:
            return False
        self.stats.states += 1
        self.oracle.prepare(self.adapter, schema, self.rng)
        if self.tracer is not None:
            self.tracer.emit(
                "state",
                states=self.stats.states,
                tests=self.stats.tests,
                cache=(
                    self.cache.stats.to_dict()
                    if self.cache is not None
                    else {}
                ),
            )
        return True

    def _one_test(self) -> None:
        tracer = self.tracer
        n = self.stats.tests + self.stats.skipped
        if tracer is not None:
            tracer.emit("test_start", n=n)
        if self.policy is not None:
            self.policy.begin_test().apply(self.oracle)
        outcome = self.oracle.run_one()
        if self.policy is not None:
            self.policy.observe(outcome)
        if tracer is not None:
            tracer.emit(
                "test_finish",
                n=n,
                status=outcome.status,
                qok=outcome.queries_ok,
                qerr=outcome.queries_err,
            )
        self.stats.queries_ok += outcome.queries_ok
        self.stats.queries_err += outcome.queries_err
        if outcome.fingerprint:
            self.stats.unique_plans.add(outcome.fingerprint)
        if outcome.status == "ok":
            self.stats.tests += 1
        elif outcome.status == "bug":
            self.stats.tests += 1
            if outcome.report is not None:
                if tracer is not None:
                    tracer.emit(
                        "bug_found",
                        kind=outcome.report.kind,
                        oracle=outcome.report.oracle,
                        faults=sorted(outcome.report.fired_faults),
                    )
                # Prepend the state-building DDL/DML so the persisted
                # report is a self-contained, replayable program.
                outcome.report.statements = [
                    *self.state_gen.last_statements,
                    *outcome.report.statements,
                ]
                self.stats.reports.append(outcome.report)
                if self.on_report is not None:
                    self.on_report(outcome.report)
        else:  # error / skip
            self.stats.skipped += 1

    def _finish(self, start: float) -> CampaignStats:
        self.stats.wall_seconds = time.perf_counter() - start
        engine = getattr(self.adapter, "engine", None)
        if engine is not None:
            self.stats.branch_coverage = engine.coverage.branch_coverage()
        if self.cache is not None:
            self.stats.cache_stats = self.cache.stats.to_dict()
        self.stats.phase_stats = self.profiler.to_dict()
        return self.stats


def run_campaign(
    oracle: Oracle,
    adapter: EngineAdapter,
    *,
    n_tests: int | None = None,
    seconds: float | None = None,
    seed: int = 0,
    tests_per_state: int = 25,
    max_reports: int = 1000,
    use_cache: bool = True,
) -> CampaignStats:
    """Convenience wrapper around :class:`Campaign`.

    Runs the configuration ``coddtest`` ships: *use_cache* attaches a
    fresh worker-local :class:`repro.perf.EvalCache` unless turned off.
    Results are bit-identical either way, only throughput and
    ``stats.cache_stats`` differ.
    """
    cache = None
    if use_cache:
        from repro.perf import EvalCache

        cache = EvalCache()
    campaign = Campaign(
        oracle,
        adapter,
        seed=seed,
        tests_per_state=tests_per_state,
        max_reports=max_reports,
        cache=cache,
    )
    return campaign.run(n_tests=n_tests, seconds=seconds)
