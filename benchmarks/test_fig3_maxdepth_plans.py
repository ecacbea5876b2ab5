"""Paper Figure 3: expression complexity (MaxDepth) vs unique query plans.

Paper: with subqueries excluded, the number of unique query plans
*decreases* as MaxDepth grows, tracking throughput -- deeper expressions
do not exercise new planner behaviour, they just slow each test down
(Section 4.3: "increasing expression depth with language features other
than subqueries does not significantly exercise additional logic").

Reproduction: the unique plans each depth finds in the same time
budget: the time depth 1 takes for ``BUDGET_TESTS`` tests.  A budget
of seconds would make the plan counts depend on how fast, and how
steady, the machine is.  So every depth runs ``BUDGET_TESTS`` tests,
all interleaved (``run_interleaved``), and each reports the tests and
plans it had reached when its own run time hit the budget.
Additionally verify the mechanism claim by showing plan fingerprints
ignore plain expression depth.
"""

from conftest import run_interleaved, run_once

from repro import Campaign, CoddTestOracle, MiniDBAdapter, make_engine

DEPTHS = (1, 5, 10, 15)
#: Depth 1's tests in the time budget (about 3 s on a 2-core VM).
BUDGET_TESTS = 2300
#: Tests per interleaved slice; the budget is read at slice ends.
SLICE_TESTS = 25


def test_fig3_maxdepth_vs_unique_plans(benchmark):
    def sweep():
        # Timed uncached, like Figure 2: the evaluation cache memoizes
        # most of the cost expression depth adds.
        campaigns = {
            depth: Campaign(
                CoddTestOracle(max_depth=depth, expression_only=True),
                MiniDBAdapter(make_engine("sqlite")),
                seed=19,
            )
            for depth in DEPTHS
        }
        # depth -> (seconds, tests, plans) at the end of every slice
        progress = {depth: [] for depth in DEPTHS}

        def record(depth, stats, seconds):
            progress[depth].append(
                (seconds, stats.tests, len(stats.unique_plans))
            )

        run_interleaved(
            campaigns,
            BUDGET_TESTS // SLICE_TESTS,
            n_tests=BUDGET_TESTS,
            after_slice=record,
        )
        budget = progress[DEPTHS[0]][-1][0]
        series = {}
        for depth in DEPTHS:
            _, tests, plans = min(
                progress[depth], key=lambda point: abs(point[0] - budget)
            )
            series[depth] = {"tests": tests, "unique_plans": plans}
        return series

    series = run_once(benchmark, sweep)

    print("\n[Figure 3 reproduction] unique plans vs MaxDepth:")
    for depth in DEPTHS:
        row = series[depth]
        print(f"  depth {depth:>2d}: {row['unique_plans']:>5d} plans "
              f"({row['tests']} tests)")
    benchmark.extra_info["series"] = series

    # Unique plans decrease with depth, tracking throughput (paper Fig 3).
    assert series[15]["unique_plans"] <= series[1]["unique_plans"], series
    assert series[15]["tests"] < series[1]["tests"], series


def test_plan_fingerprints_ignore_expression_depth():
    """Mechanism check: a deeper *expression* alone produces the same
    plan fingerprint (only subqueries/structure change plans)."""
    engine = make_engine("sqlite")
    engine.execute("CREATE TABLE t (a INT, b INT)")
    engine.execute("INSERT INTO t VALUES (1, 2)")
    shallow = engine.execute("SELECT * FROM t WHERE a > 1").plan_fingerprint
    deep = engine.execute(
        "SELECT * FROM t WHERE ((a + 1) * 2 - b) > ((1 + 2) * (3 - 1))"
    ).plan_fingerprint
    assert shallow == deep

    with_subquery = engine.execute(
        "SELECT * FROM t WHERE a > (SELECT MAX(b) FROM t)"
    ).plan_fingerprint
    assert with_subquery != shallow
