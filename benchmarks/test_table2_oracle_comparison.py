"""Paper Table 2: the number of logic bugs detectable by each oracle.

Paper (manual analysis of the 24 logic bugs):
    NoREC 11, TLP 12, DQE 4, only-CODDTest 11.

Reproduction: for every logic fault, enable *only that fault* and run a
bounded campaign per oracle; detected = at least one bug report.  This
replaces the paper's manual analysis with a measurement over the same
question (EXPERIMENTS.md, Table 2 row).
"""

from conftest import run_once

from repro.dialects import LOGIC_FAULTS
from repro.report import render_detection_table
from repro.runner import detection_matrix

N_TESTS = 500


def test_table2_detection_matrix(benchmark, oracle_factories):
    def measure():
        return detection_matrix(
            oracle_factories, LOGIC_FAULTS, n_tests=N_TESTS, seed=21
        )

    matrix = run_once(benchmark, measure)

    print("\n[Table 2 reproduction] detectable logic bugs by oracle:")
    print(render_detection_table(matrix))

    codd = matrix["coddtest"]
    others = matrix["norec"] | matrix["tlp"] | matrix["dqe"]
    only_codd = codd - others

    benchmark.extra_info["counts"] = {
        "coddtest": len(codd),
        "norec": len(matrix["norec"]),
        "tlp": len(matrix["tlp"]),
        "dqe": len(matrix["dqe"]),
        "only_coddtest": len(only_codd),
    }

    # Shape: CODDTest detects (nearly) all its bugs; the baselines sit in
    # the paper's bands (paper: 11 / 12 / 4 / 11).
    assert len(codd) >= 22, f"CODDTest detected only {len(codd)}/24"
    assert 8 <= len(matrix["norec"]) <= 14, matrix["norec"]
    assert 9 <= len(matrix["tlp"]) <= 15, matrix["tlp"]
    assert 2 <= len(matrix["dqe"]) <= 7, matrix["dqe"]
    assert len(only_codd) >= 8, sorted(only_codd)

    # Qualitative claims of Section 4.2: the bugs only CODDTest finds
    # live in subqueries, JOIN ON, ANY, AVG, and INSERT.
    assert "sqlite_agg_subquery_indexed" in only_codd  # Listing 1
    assert "sqlite_join_on_exists" in only_codd  # Listing 8
    assert "tidb_insert_select_version" in only_codd  # Listing 6
