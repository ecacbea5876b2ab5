#!/usr/bin/env python3
"""Run CODDTest against the *real* SQLite (Python's stdlib ``sqlite3``).

This is the paper's actual use case: black-box testing of a production
DBMS through its SQL interface.  A modern, released SQLite is expected
to produce no discrepancies -- the paper found its bugs in development
versions -- so this example demonstrates that the harness drives a real
DBMS, reports throughput, and shows the query streams involved.

Run:  python examples/hunt_real_sqlite.py [n_tests]
"""

import sqlite3
import sys

from repro import CoddTestOracle, Sqlite3Adapter, run_campaign


def main() -> None:
    n_tests = int(sys.argv[1]) if len(sys.argv) > 1 else 300

    adapter = Sqlite3Adapter()
    print(f"Testing SQLite {sqlite3.sqlite_version} via the stdlib driver.\n")

    # Relation-mode folding stays off.  Its folds do run on SQLite,
    # through their CTE forms: with relation_mode_prob=1.0, all 300
    # tests at seed 3 ran on SQLite 3.40.1.  But the folded VALUES
    # columns carry no type affinity while the source columns do, so
    # SQLite's affinity rules would show up as false positives
    # (ROADMAP item 1).
    oracle = CoddTestOracle(relation_mode_prob=0.0)
    stats = run_campaign(oracle, adapter, n_tests=n_tests, seed=1)

    print(f"tests executed:        {stats.tests}")
    print(f"successful queries:    {stats.queries_ok}")
    print(f"unsuccessful queries:  {stats.queries_err}")
    print(f"queries per test:      {stats.qpt:.2f}")
    print(f"unique query plans:    {len(stats.unique_plans)} "
          f"(from EXPLAIN QUERY PLAN)")
    print(f"throughput:            {stats.tests_per_second:.1f} tests/s")

    logic = [r for r in stats.reports if r.kind == "logic"]
    if logic:
        print(f"\n{len(logic)} discrepancies reported! Reduced cases below;")
        print("if reproducible on the latest trunk, report upstream.")
        for report in logic[:3]:
            print(f"\n- {report.description}")
            for sql in report.statements:
                print(f"    {sql}")
    else:
        print("\nNo logic discrepancies -- expected on a stable release")
        print("(the paper's bugs were found in development versions).")


if __name__ == "__main__":
    main()
