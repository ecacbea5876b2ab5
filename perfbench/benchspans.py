"""Layer spans recorded from outside the ``repro`` package.

:meth:`Tracer.install` replaces the public functions listed in
:data:`LAYERS` with wrappers that record one span per call: name,
start, end, the enclosing span, and the index of the test it belongs
to.  Spans stay in memory.  A forked fleet worker starts with an empty
buffer and hands its spans to the caller through :meth:`Tracer.ship`.

Two pitfalls shape the table:

* ``parse_statement``, ``plan_select`` and ``execute_select`` are
  imported *by name* into the modules that call them, so the wrapper is
  installed at each place the name is looked up, not where it is
  defined.
* ``execute_select``, ``plan_select``, ``parser_normal`` and
  ``Select.to_sql`` recurse; they are timed outermost-only, so a nested
  call is part of its outer span.  Every other nesting is resolved by
  self time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

from benchstats import percentile, tail_percentile

#: ``(span name, module, attribute, how)``.  *how* is ``"outermost"``
#: for recursive functions, ``"writes"`` to time only statements that are
#: not a SELECT, ``"test"`` for the per-test span, or ``""``.
LAYERS = (
    ("oracles.test", "repro.oracles_base", "Oracle.run_one", "test"),
    ("oracles.compare", "repro.oracles_base", "rows_equal", ""),
    ("minidb.parse", "repro.minidb.engine", "parse_statement", ""),
    ("minidb.parse", "repro.adapters.minidb_adapter", "parse_statement", ""),
    ("minidb.parse", "repro.perf.cache", "parse_statement", ""),
    ("minidb.plan", "repro.minidb.engine", "plan_select", "outermost"),
    ("minidb.exec", "repro.minidb.engine", "execute_select", "outermost"),
    ("minidb.write", "repro.minidb.engine", "Engine.execute_ast", "writes"),
    ("minidb.render", "repro.minidb.ast_nodes", "Select.to_sql", "outermost"),
    ("perf.normalize", "repro.perf.normalize", "parser_normal", "outermost"),
    ("perf.stmt_memo", "repro.perf.cache", "EvalCache.lookup_statement", ""),
    ("perf.stmt_memo", "repro.perf.cache", "EvalCache.store_statement", ""),
    ("core.fold", "repro.core.coddtest", "fold_expression", ""),
    ("adapters.minidb", "repro.adapters.minidb_adapter", "MiniDBAdapter.execute", ""),
    ("adapters.sqlite3", "repro.adapters.sqlite3_adapter", "Sqlite3Adapter.execute", ""),
    ("differential.tee", "repro.differential.pair", "DifferentialAdapter.execute", ""),
    ("differential.canonical", "repro.differential.pair", "canonical", ""),
    ("backends.policy", "repro.backends", "pair_policy", ""),
    ("generator.state", "repro.generator.state_gen", "StateGenerator.generate", ""),
    ("runner.reduce", "repro.fleet.orchestrator", "reduce_statements", ""),
    ("fleet.corpus_add", "repro.fleet.corpus", "BugCorpus.add", ""),
    ("triage.cluster", "repro.triage.cluster", "cluster_corpus", ""),
    ("triage.replay", "repro.triage.replay", "replay_clusters", ""),
    ("guidance.policy", "repro.guidance.policy", "GuidedPolicy.begin_test", ""),
    ("guidance.policy", "repro.guidance.policy", "GuidedPolicy.observe", ""),
    ("fleet.shard", "repro.runner.campaign", "Campaign.run", ""),
)

#: Span names in table order, each once.
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in LAYERS))

#: Eval-cache memo domains whose hit rate is reported.
CACHE_DOMAINS = ("parse", "stmt", "eval", "plan")

#: Metrics derived from spans and cache counters, besides the per-span
#: ``<name>_s`` (self time) and ``<name>_calls`` pairs.
DERIVED = (
    "oracles.test_ms_p50",
    "oracles.test_ms_p99",
    "oracles.test_samples",
    "fleet.idle_s",
    "fleet.barrier_wait_s",
    "other_share",
) + tuple(
    metric
    for d in CACHE_DOMAINS
    for metric in (f"perf.{d}_hit_rate", f"perf.{d}_lookups")
)


def self_metric(name: str) -> str:
    """The self-time metric of span *name*.  The per-test span's
    inclusive time is reported as percentiles, so its self time is
    named apart."""
    return "oracles.test_self_s" if name == "oracles.test" else f"{name}_s"


def span_metric_names() -> "list[str]":
    """Every metric :func:`layer_metrics` returns, in report order."""
    names = []
    for name in SPAN_NAMES:
        names += [self_metric(name), f"{name}_calls"]
    return names + list(DERIVED)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """In-memory span buffer of one process."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.spans: list = []
        self._stack: list = []
        self._active: dict = {}
        self._test = -1
        self._tests = 0
        #: ``CacheStats`` of every ``EvalCache`` built in this process.
        self.cache_stats: list = []

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` and count eval caches.
        Meant for a process that runs one traced workload and exits:
        nothing is unwrapped."""
        from repro.minidb.ast_nodes import Select
        from repro.perf.cache import EvalCache

        for name, module_name, attribute, how in LAYERS:
            owner, leaf = _resolve(module_name, attribute)
            accept = None
            if how == "writes":
                def accept(args, _select=Select):
                    return not isinstance(args[1], _select)
            setattr(
                owner,
                leaf,
                self.wrap(
                    getattr(owner, leaf),
                    name,
                    outermost=how == "outermost",
                    accept=accept,
                    marks_test=how == "test",
                ),
            )

        original_init = EvalCache.__init__
        registry = self.cache_stats

        @functools.wraps(original_init)
        def counted_init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            registry.append(cache.stats)

        EvalCache.__init__ = counted_init
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A worker keeps only what it records itself; the lists are
        # cleared in place because the wrappers hold them.
        del self.spans[:]
        del self._stack[:]
        self._active.clear()
        del self.cache_stats[:]

    def wrap(self, fn, name, outermost=False, accept=None, marks_test=False):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (outermost and active.get(name)) or (
                accept is not None and not accept(args)
            ):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] = active.get(name, 0) + 1
            if marks_test:
                tracer._test = tracer._tests
                tracer._tests += 1
            test = tracer._test
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                if marks_test:
                    tracer._test = -1
                spans[index] = (name, start, end, parent, test)

        return traced

    def is_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def payload(self) -> dict:
        """This process' spans and summed eval-cache counters.  Called
        when no span is open, so every slot holds a finished span."""
        totals: dict = {}
        for stats in self.cache_stats:
            for key, value in stats.to_dict().items():
                totals[key] = totals.get(key, 0) + value
        return {"pid": os.getpid(), "spans": list(self.spans), "cache": totals}

    def ship(self, directory: str) -> None:
        """Write this worker's payload where the parent collects it and
        empty the buffer (a worker may run several campaigns)."""
        path = os.path.join(directory, f"worker-{os.getpid()}-{len(self.spans)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)
        del self.spans[:]
        del self.cache_stats[:]


def write_spans(path: str, payloads) -> None:
    """All spans of a run as JSON lines ``[pid, name, start, end,
    parent, test]``; *parent* indexes the same pid's spans in file
    order, and *test* is the per-process test index (-1 outside tests)."""
    with open(path, "w", encoding="utf-8") as fh:
        for payload in payloads:
            for span in payload["spans"]:
                fh.write(json.dumps([payload["pid"], *span]) + "\n")


def read_shipped(directory: str) -> "list[dict]":
    """Payloads written by :meth:`Tracer.ship`, in a stable order."""
    payloads = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                payloads.append(json.load(fh))
    return payloads


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> "tuple[dict, dict]":
    """``(self seconds, calls)`` per span name over one process' spans.
    A span's self time is its duration minus its direct children's
    durations; children are found through the parent index."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    seconds: dict = {}
    calls: dict = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        seconds[name] = seconds.get(name, 0.0) + (end - start) - covered[index]
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def barrier_wait(shard_intervals) -> float:
    """Summed wait at round barriers: shard intervals are grouped into
    rounds (a round starts when a shard starts after every earlier one
    ended), and each shard waits from its end to its round's last end."""
    rounds: list = []
    for start, end in sorted(shard_intervals):
        if rounds and start < max(e for _, e in rounds[-1]):
            rounds[-1].append((start, end))
        else:
            rounds.append([(start, end)])
    return sum(
        max(e for _, e in group) - end for group in rounds for _, end in group
    )


def layer_metrics(payloads, window, fleet_window) -> dict:
    """Per-layer metrics of one traced run.

    *payloads* are :meth:`Tracer.payload` dicts of every process;
    *window* is the workload's ``(start, end)`` and *fleet_window* that
    of its ``run_fleet`` call.
    """
    seconds: dict = {}
    calls: dict = {}
    cache: dict = {}
    tests_ms: list = []
    shards: list = []
    tops: list = []
    for payload in payloads:
        spans = payload["spans"]
        own_seconds, own_calls = self_times(spans)
        for name, value in own_seconds.items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in own_calls.items():
            calls[name] = calls.get(name, 0) + value
        for key, value in payload["cache"].items():
            cache[key] = cache.get(key, 0) + value
        for name, start, end, parent, _ in spans:
            if name == "oracles.test":
                tests_ms.append(1000.0 * (end - start))
            elif name == "fleet.shard":
                shards.append((start, end))
            if parent < 0:
                tops.append((start, end))

    out: dict = {}
    for name in SPAN_NAMES:
        out[self_metric(name)] = seconds.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    # p99 when the sample supports it, else the highest percentile
    # that does (the sample count is reported beside it).
    tail, _, n = tail_percentile(tests_ms)
    out["oracles.test_ms_p50"] = percentile(tests_ms, 50) if tests_ms else 0.0
    out["oracles.test_ms_p99"] = (
        percentile(tests_ms, min(tail, 99.0)) if tail is not None else 0.0
    )
    out["oracles.test_samples"] = n
    lo, hi = fleet_window
    out["fleet.idle_s"] = (hi - lo) - union_length(shards, lo, hi)
    out["fleet.barrier_wait_s"] = barrier_wait(shards)
    lo, hi = window
    out["other_share"] = 1.0 - union_length(tops, lo, hi) / (hi - lo)
    for domain in CACHE_DOMAINS:
        hits = cache.get(f"{domain}_hits", 0)
        lookups = hits + cache.get(f"{domain}_misses", 0)
        out[f"perf.{domain}_hit_rate"] = hits / lookups if lookups else 0.0
        out[f"perf.{domain}_lookups"] = lookups
    return out
