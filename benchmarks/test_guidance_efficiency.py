"""Guidance efficiency: plan-coverage-guided vs uniform-random budget.

The guided fleet's claim (ISSUE 4 / Query Plan Guidance, Ba & Rigger
ICSE 2023): steering generator knobs toward unseen plan fingerprints
buys at least as many unique plans per 1k tests as uniform-random at
equal budget, without hurting time-to-first-bug on the planted-fault
catalog.

Both metrics are *deterministic* (unique-plan counts and test counts
are pure functions of the seed), so unlike the wall-clock benchmarks
these assertions cannot wobble on shared CI hardware.
"""

import statistics

from conftest import run_once

from repro import FleetConfig, run_fleet

PLAN_SEEDS = (1, 2, 3)
PLAN_BUDGET = 1000

TTFB_SEEDS = tuple(range(1, 10))
TTFB_BUDGET = 2000


def _config(seed, guided, **kwargs):
    return FleetConfig(
        oracle="coddtest",
        dialect="sqlite",
        buggy=True,
        workers=1,
        seed=seed,
        guidance="plan-coverage" if guided else None,
        **kwargs,
    )


def test_guided_unique_plans_per_1k_tests(benchmark):
    def sweep():
        series = {}
        for seed in PLAN_SEEDS:
            uniform = run_fleet(_config(seed, False, n_tests=PLAN_BUDGET))
            guided = run_fleet(_config(seed, True, n_tests=PLAN_BUDGET))
            series[seed] = {
                "uniform_plans": len(uniform.merged.unique_plans),
                "guided_plans": len(guided.merged.unique_plans),
                "guided_arms": guided.arm_summary,
            }
        return series

    series = run_once(benchmark, sweep)

    print("\n[guidance efficiency] unique plans per "
          f"{PLAN_BUDGET} tests (3 seeds):")
    for seed, row in series.items():
        print(f"  seed {seed}: uniform {row['uniform_plans']:>4d}  "
              f"guided {row['guided_plans']:>4d}")
    benchmark.extra_info["series"] = {
        s: {k: v for k, v in row.items() if k != "guided_arms"}
        for s, row in series.items()
    }

    uniform_median = statistics.median(
        row["uniform_plans"] for row in series.values()
    )
    guided_median = statistics.median(
        row["guided_plans"] for row in series.values()
    )
    # The acceptance bar: guided >= uniform at equal budget.
    assert guided_median >= uniform_median, series
    for seed, row in series.items():
        assert row["guided_plans"] >= row["uniform_plans"] * 0.95, (seed, row)


def test_guided_time_to_first_bug_no_worse(benchmark):
    def first_bug_tests(seed, guided):
        # max_reports=1 stops the campaign at the first report; the
        # test counter then reads "tests until the first bug" -- a
        # deterministic count, not a time: guided arms pick heavier
        # queries, so guided fleets run fewer tests per second (22 %
        # fewer on 1-worker 1,000-test fleets, seeds 1-5, 2-core VM).
        result = run_fleet(
            _config(seed, guided, n_tests=TTFB_BUDGET, max_reports=1)
        )
        return result.merged.tests if result.merged.reports else TTFB_BUDGET

    def sweep():
        uniform = [first_bug_tests(s, False) for s in TTFB_SEEDS]
        guided = [first_bug_tests(s, True) for s in TTFB_SEEDS]
        return {"uniform": uniform, "guided": guided}

    series = run_once(benchmark, sweep)
    u_median = statistics.median(series["uniform"])
    g_median = statistics.median(series["guided"])
    print(f"\n[guidance efficiency] tests to first planted bug "
          f"({len(TTFB_SEEDS)} seeds):")
    print(f"  uniform {series['uniform']} median {u_median}")
    print(f"  guided  {series['guided']} median {g_median}")
    benchmark.extra_info["series"] = series

    assert g_median <= u_median, series
