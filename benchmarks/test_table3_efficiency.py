"""Paper Table 3: efficiency comparison of the oracles.

Paper findings (SQLite, 24h x 10 threads):
* throughput: NoREC > TLP > CODDTest > DQE (CODDTest ~4.2x slower than
  NoREC, ~2.0x slower than TLP, ~1.1x faster than DQE);
* QPT: NoREC 2.05, TLP 2.23, DQE 17.0, CODDTest 3.33 (>=3: A, O, F);
* unique query plans: CODDTest orders of magnitude above the others
  (14.9x NoREC ... 5303x DQE), driven by subqueries;
* branch coverage: NoREC/TLP/CODDTest nearly equal, DQE lower.

Reproduction: equal fixed-workload campaigns per oracle on the
fault-free SQLite-like engine, plus the CODDTest & Expression /
& Subquery variants.  Throughput, the one wall-clock measure, comes
from a second set of the same campaigns, each run without the
evaluation cache and as shipped (cache on), all interleaved
(``run_interleaved``) so a slow spell of the machine cannot land on
one oracle or one configuration only.  Both tests/s columns are
printed; the throughput assertions read the uncached one.
"""

from functools import partial

from conftest import run_interleaved, run_once

from repro import (
    Campaign,
    CoddTestOracle,
    DQEOracle,
    EvalCache,
    MiniDBAdapter,
    NoRECOracle,
    TLPOracle,
    make_engine,
    run_campaign,
)
from repro.report import render_efficiency_table

N_TESTS = 700
#: Interleaved slices per throughput campaign (50 tests each).
SLICES = 14
ORACLES = (
    NoRECOracle,
    TLPOracle,
    DQEOracle,
    CoddTestOracle,
    partial(CoddTestOracle, expression_only=True),
    partial(CoddTestOracle, subquery_only=True),
)


def _row(stats) -> dict:
    return {
        "oracle": stats.oracle,
        "tests": stats.tests,
        "queries_ok": stats.queries_ok,
        "queries_err": stats.queries_err,
        "qpt": stats.qpt,
        "unique_plans": len(stats.unique_plans),
        "coverage": stats.branch_coverage,
    }


def test_table3_efficiency(benchmark):
    def measure():
        rows = {}
        for make_oracle in ORACLES:
            adapter = MiniDBAdapter(make_engine("sqlite"))
            stats = run_campaign(
                make_oracle(), adapter, n_tests=N_TESTS, seed=33
            )
            rows[stats.oracle] = _row(stats)
        # Throughput is asserted on the uncached engine, as the paper
        # times the DBMS; the shipped column is measured in the same
        # interleaved run and printed beside it.  The cache's parse
        # memo saves a different share of each oracle's work (two runs
        # on a 2-core VM: NoREC 2.1x, TLP 2.0-2.2x, DQE 2.9x, CODDTest
        # 2.3-2.5x), so as shipped DQE outruns CODDTest.  The other
        # columns are bit-identical with and without the cache; slicing
        # changes which state a campaign ends on, and so its branch
        # coverage, so they come from the uninterrupted campaigns above.
        campaigns = {
            (name, shipped): Campaign(
                make_oracle(),
                MiniDBAdapter(make_engine("sqlite")),
                seed=33,
                cache=EvalCache() if shipped else None,
            )
            for name, make_oracle in zip(rows, ORACLES)
            for shipped in (False, True)
        }
        timed = run_interleaved(campaigns, SLICES, n_tests=N_TESTS)
        for name in rows:
            uncached, shipped = timed[name, False], timed[name, True]
            assert shipped.signature() == uncached.signature(), name
            rows[name]["tests_per_second"] = uncached.tests_per_second
            rows[name]["shipped_tests_per_second"] = shipped.tests_per_second
        return rows

    rows = run_once(benchmark, measure)

    print("\n[Table 3 reproduction] oracle efficiency:")
    print(render_efficiency_table(rows.values()))
    benchmark.extra_info["rows"] = {
        k: {kk: vv for kk, vv in v.items() if kk != "oracle"}
        for k, v in rows.items()
    }

    norec, tlp, dqe = rows["norec"], rows["tlp"], rows["dqe"]
    codd = rows["coddtest"]
    codd_expr = rows["coddtest-expr"]
    codd_subq = rows["coddtest-subq"]

    # Throughput ordering: NoREC fastest; CODDTest slower than NoREC and
    # TLP but comparable to DQE (paper: 4.2x / 2.0x slower, 1.13x faster).
    assert norec["tests_per_second"] > codd["tests_per_second"]
    assert tlp["tests_per_second"] > codd["tests_per_second"]
    assert codd["tests_per_second"] > dqe["tests_per_second"] * 0.3

    # QPT: NoREC ~2, TLP a little above 2, CODDTest >= 3 (A, O, F, plus
    # relation-mode DDL), DQE largest (paper: 2.05 / 2.23 / 3.33 / 17).
    assert 1.9 <= norec["qpt"] <= 2.1
    assert codd["qpt"] >= 3.0
    assert tlp["qpt"] < codd["qpt"]
    assert dqe["qpt"] > codd["qpt"]
    assert codd_expr["qpt"] >= 2.9 and codd_subq["qpt"] >= 2.9

    # Unique plans: CODDTest far ahead; DQE last by a huge margin; the
    # subquery variant beats the expression variant (paper: 2.7M vs 7.4k).
    assert codd["unique_plans"] > 2.5 * norec["unique_plans"]
    assert codd["unique_plans"] > 2 * tlp["unique_plans"]
    assert dqe["unique_plans"] < 0.1 * norec["unique_plans"]
    assert codd_subq["unique_plans"] > codd_expr["unique_plans"]

    # Branch coverage: DQE is the lowest (it cannot exercise joins,
    # views, or subqueries -- paper: 46.7% vs ~63%).  NoREC and TLP sit
    # close together; CODDTest's margin over them is amplified here
    # because MiniDB's branch universe is small and subquery-heavy
    # (deviation documented in EXPERIMENTS.md).
    assert dqe["coverage"] < norec["coverage"]
    assert dqe["coverage"] < tlp["coverage"]
    assert dqe["coverage"] < codd["coverage"]
    assert abs(norec["coverage"] - tlp["coverage"]) < 0.15
    assert codd["coverage"] >= norec["coverage"] - 0.05
