"""Perf-layer speedup on the fig2 workload (ROADMAP "Worker-local
caching").

Cache-off vs shipped (cache-on) campaigns at MaxDepth 3/5/7, measured
with the shared :mod:`repro.perf.bench` helpers so this benchmark emits
the exact ``BENCH_perf.json`` record schema the perf-smoke CI job
uploads.

Assertions are shape-level and deliberately loose for shared hardware:
the cache must never *lose* throughput (speedup >= 1 at every depth),
its hit rate must be substantial where expressions are deep (> 0.2 at
MaxDepth >= 5), and both campaigns of a pair must be bit-identical --
the hard contract, also gated as a blocking CI job on every push.  The
measured target (>= 1.5x at MaxDepth >= 5) is recorded in the JSON
rather than asserted here.
"""

from __future__ import annotations

from conftest import run_once

from repro.perf.bench import bench_payload, measure_depth

DEPTHS = (3, 5, 7)
TESTS_PER_DEPTH = 400
SEED = 17


def test_cache_speedup_maxdepth_sweep(benchmark):
    def sweep():
        measure_depth(3, tests=100, seed=SEED)  # warm-up: imports, allocator
        return [
            measure_depth(depth, tests=TESTS_PER_DEPTH, seed=SEED)
            for depth in DEPTHS
        ]

    records = run_once(benchmark, sweep)
    payload = bench_payload(records)
    benchmark.extra_info["BENCH_perf"] = payload

    print("\n[cache speedup] fig2 MaxDepth sweep, cache-off vs shipped:")
    for r in records:
        print(
            f"  depth {r['max_depth']}: "
            f"{r['tests_per_second_cache_off']:8.1f} -> "
            f"{r['tests_per_second_cache_on']:8.1f} tests/s  "
            f"(cache {r['speedup']:.2f}x, "
            f"hit rate {100 * r['cache_hit_rate']:.1f}%)"
        )

    # Hard contract: the shipped configuration is bit-identical to
    # cache-off.
    assert payload["all_signatures_identical"], records

    # The cache must pay for itself at every depth ...
    for r in records:
        assert r["speedup"] >= 1.0, records
    deep = [r for r in records if r["max_depth"] >= 5]
    # ... and the hit rate must be substantial where expressions are
    # deep (they memoize well).
    assert all(r["cache_hit_rate"] > 0.2 for r in deep), records
