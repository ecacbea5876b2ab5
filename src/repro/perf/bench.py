"""Machine-readable throughput benchmarking (``BENCH_perf.json``).

One JSON schema, two producers: ``tools/perf_smoke.py`` (the blocking
CI job, which uploads the file as an artifact) and
``benchmarks/test_cache_speedup.py`` (the pytest-benchmark variant).
Sharing the measurement code here keeps every recorded number -- tests
per second, speedup, hit rate -- defined the same way in both places,
so the bench trajectory is comparable across PRs.

Measurements run the **fig2 workload** (CODDTest & Expression at a
fixed MaxDepth, paper Figure 2): it is the configuration whose
throughput the paper sweeps, and the one ROADMAP names as the
expression-evaluation-bound hot path.
"""

from __future__ import annotations

import time

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.core import CoddTestOracle
from repro.dialects import make_engine
from repro.perf.cache import EvalCache
from repro.runner.campaign import Campaign, CampaignStats

#: Bump when the BENCH_perf.json layout changes.  v2 added the
#: per-phase wall-clock breakdown (``phases`` per sweep record and the
#: aggregated ``phase_totals``) from :mod:`repro.obs.phases` and the
#: ``history`` trajectory of prior runs.  v3 measures two modes,
#: cache-off and the shipped configuration, with ``speedup`` between
#: them, and stamps history records with ``commit`` and ``dirty``.
BENCH_SCHEMA_VERSION = 3


def run_fig2_campaign(
    depth: int, tests: int, seed: int, use_cache: bool
) -> tuple[CampaignStats, float]:
    """One fig2-workload campaign; returns (stats, wall seconds)."""
    oracle = CoddTestOracle(max_depth=depth, expression_only=True)
    adapter = MiniDBAdapter(make_engine("sqlite"))
    cache = EvalCache() if use_cache else None
    campaign = Campaign(oracle, adapter, seed=seed, cache=cache)
    start = time.perf_counter()
    stats = campaign.run(n_tests=tests)
    return stats, time.perf_counter() - start


def measure_depth(
    depth: int, tests: int = 400, seed: int = 17, repeats: int = 2
) -> dict:
    """Two-way measurement of one MaxDepth point.

    Runs the fig2 workload cache-off (the uncached reference) and as
    shipped (cache on).  The returned record carries both throughputs,
    the speedup, and -- load-bearing for the CI gate -- whether both
    campaigns produced identical deterministic signatures.

    Each mode runs *repeats* times interleaved and keeps its best wall
    time: the campaigns are deterministic, so repeats differ only by
    scheduler/allocator noise, and best-of-N is the standard way to
    strip that noise from the speedup ratio.
    """
    off_seconds = on_seconds = float("inf")
    for _ in range(max(1, repeats)):
        off_stats, seconds = run_fig2_campaign(depth, tests, seed, False)
        off_seconds = min(off_seconds, seconds)
        on_stats, seconds = run_fig2_campaign(depth, tests, seed, True)
        on_seconds = min(on_seconds, seconds)
    return {
        "max_depth": depth,
        "tests": tests,
        "seed": seed,
        "tests_per_second_cache_off": round(tests / max(off_seconds, 1e-9), 2),
        "tests_per_second_cache_on": round(tests / max(on_seconds, 1e-9), 2),
        "speedup": round(off_seconds / max(on_seconds, 1e-9), 3),
        "cache_hit_rate": round(on_stats.cache_hit_rate, 4),
        "cache_stats": dict(on_stats.cache_stats),
        "signatures_identical": off_stats.signature() == on_stats.signature(),
        # Where the wall-clock goes, per mode: the cache should shrink
        # the parse/execute share, and the per-phase trajectory across
        # PRs shows which phase a regression landed in.
        "phases": {
            "cache_off": _round_phases(off_stats.phase_stats),
            "cache_on": _round_phases(on_stats.phase_stats),
        },
    }


def _round_phases(phases: "dict[str, dict]") -> dict:
    return {
        name: {"calls": rec["calls"], "seconds": round(rec["seconds"], 6)}
        for name, rec in phases.items()
    }


def bench_payload(
    sweep: list[dict], workloads: "list[dict] | None" = None
) -> dict:
    """Assemble the BENCH_perf.json payload from measurement records."""
    from repro.obs.phases import merge_phase_totals

    deep = [r["speedup"] for r in sweep if r["max_depth"] >= 5]
    phase_totals: dict = {"cache_off": {}, "cache_on": {}}
    for record in sweep:
        for mode in phase_totals:
            phase_totals[mode] = merge_phase_totals(
                phase_totals[mode], record.get("phases", {}).get(mode, {})
            )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": "fig2 (CODDTest & Expression, fixed-seed)",
        "maxdepth_sweep": list(sweep),
        "phase_totals": {
            mode: _round_phases(totals)
            for mode, totals in phase_totals.items()
        },
        "min_speedup_at_depth_ge_5": round(min(deep), 3) if deep else None,
        "all_signatures_identical": all(
            r["signatures_identical"] for r in sweep
        )
        and all(w.get("identical", True) for w in (workloads or [])),
        "workloads": list(workloads or []),
    }
