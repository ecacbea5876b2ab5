"""Paper Figure 2: expression complexity (MaxDepth) vs performance.

Paper: raising MaxDepth from 1 to 15 increases per-query execution time
~9.9x and cuts test throughput by ~89% (CODDTest & Expression, i.e. no
subqueries, to isolate expression complexity).

Reproduction: equal fixed-*workload* campaigns (same number of tests at
every depth) so the per-query cost is comparable across machines, then
assert the paper's *direction* -- deeper expressions cost more per
query and lower test throughput.  The magnitude on this Python
simulator (~1.2-1.3x) is far below the paper's 9.9x, and CI boxes are
noisy, so the pass threshold is not hard-coded: the depth-1
configuration is measured several times alongside the sweep and the
deep end must fall outside that per-machine noise envelope.

Those assertions read the uncached engine.  The same run also times the
shipped configuration (evaluation cache on) at every depth, and holds
the cache to its contract: each shipped campaign is bit-identical to
its uncached twin, never runs fewer tests per second, and hits the
cache more than 20 % of the time from MaxDepth 5 up.  All campaigns
run interleaved (``run_interleaved``), so a slow spell of the machine
cannot land on one depth or one configuration only.
"""

from statistics import mean

from conftest import run_interleaved, run_once

from repro import Campaign, CoddTestOracle, EvalCache, MiniDBAdapter, make_engine
from repro.report import render_maxdepth_series

DEPTHS = (1, 3, 5, 7, 9, 11, 13, 15)
TESTS_PER_DEPTH = 500
#: Repeated depth-1 runs that calibrate this machine's measurement noise.
BASELINE_REPS = 3
#: Interleaved slices per campaign (25 tests each).
SLICES = 20


def _campaign(depth: int, shipped: bool = False) -> Campaign:
    oracle = CoddTestOracle(max_depth=depth, expression_only=True)
    adapter = MiniDBAdapter(make_engine("sqlite"))
    # The paper times the DBMS, so its claims are checked on the engine
    # without the evaluation cache, whose parse memo skips part of the
    # per-query work the paper measures.
    cache = EvalCache() if shipped else None
    return Campaign(oracle, adapter, seed=17, cache=cache)


def _row(stats) -> dict:
    queries = stats.queries_ok + stats.queries_err
    return {
        "us_per_query": 1e6 * stats.wall_seconds / max(queries, 1),
        "tests": stats.tests,
        "tests_per_second": stats.tests_per_second,
        "unique_plans": len(stats.unique_plans),
    }


def test_fig2_maxdepth_vs_time_and_throughput(benchmark):
    def sweep():
        # Warm-up: imports, code paths, allocator.
        _campaign(1).run(n_tests=TESTS_PER_DEPTH)
        _campaign(1, shipped=True).run(n_tests=TESTS_PER_DEPTH)
        campaigns = {
            ("baseline", i): _campaign(1) for i in range(BASELINE_REPS)
        }
        campaigns.update((depth, _campaign(depth)) for depth in DEPTHS)
        campaigns.update(
            (("shipped", depth), _campaign(depth, shipped=True))
            for depth in DEPTHS
        )
        stats = run_interleaved(campaigns, SLICES, n_tests=TESTS_PER_DEPTH)
        baseline = [_row(stats["baseline", i]) for i in range(BASELINE_REPS)]
        series = {}
        for depth in DEPTHS:
            shipped = stats["shipped", depth]
            series[depth] = {
                **_row(stats[depth]),
                "shipped_tests_per_second": shipped.tests_per_second,
                "hit_rate": shipped.cache_hit_rate,
                "identical": shipped.signature() == stats[depth].signature(),
            }
        return baseline, series

    baseline, series = run_once(benchmark, sweep)

    print(
        "\n[Figure 2 reproduction] MaxDepth sweep (CODDTest & Expression), "
        "uncached and as shipped:"
    )
    print(render_maxdepth_series(series))
    benchmark.extra_info["series"] = series
    benchmark.extra_info["baseline"] = baseline

    # The shipped configuration is bit-identical to the uncached one ...
    assert all(row["identical"] for row in series.values()), series
    # ... the cache pays for itself at every depth ...
    for row in series.values():
        assert row["shipped_tests_per_second"] >= row["tests_per_second"], series
    # ... and hits often where expressions are deep (they memoize well).
    assert all(series[d]["hit_rate"] > 0.2 for d in DEPTHS if d >= 5), series

    # Per-machine noise envelope of the depth-1 configuration: any real
    # depth effect must push the deep end beyond the worst baseline run.
    cost_ceiling = max(rep["us_per_query"] for rep in baseline)
    rate_floor = min(rep["tests_per_second"] for rep in baseline)

    deep = DEPTHS[-3:]
    deep_cost = mean(series[d]["us_per_query"] for d in deep)
    deep_rate = mean(series[d]["tests_per_second"] for d in deep)

    # Per-query time rises with depth (paper: ~9.9x at depth 15).
    assert deep_cost > cost_ceiling, (baseline, series)
    # Test throughput falls with depth (paper: -89% at depth 15).
    assert deep_rate < rate_floor, (baseline, series)

    # The trend is broadly monotonic: the deepest third is slower than
    # the shallowest third on average.
    shallow_cost = mean(series[d]["us_per_query"] for d in DEPTHS[:3])
    assert deep_cost > shallow_cost, series
