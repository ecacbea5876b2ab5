"""Differential hunt: MiniDB (with its planted fault catalog) vs. the
real SQLite as the trusted reference.

Every generated state and query is executed on both engines through a
``DifferentialAdapter``; a divergence in the canonical result multisets
is a bug, attributed to the injected fault that fired on the MiniDB
side.  This is the 1-worker fleet ``coddtest diff --buggy --workers 1
--tests 1000 --seed 7`` runs.  Run from the repo root::

    PYTHONPATH=src python examples/differential_hunt.py
"""

from __future__ import annotations

from repro import FleetConfig, run_fleet


def main() -> None:
    config = FleetConfig(
        oracle="differential",
        backend_pair=("minidb", "sqlite3"),
        buggy=True,
        workers=1,
        seed=7,
        n_tests=1000,
    )
    stats = run_fleet(config).merged
    print(
        f"differential: {stats.tests} tests, {stats.skipped} skipped, "
        f"{len(stats.unique_plans)} unique primary plans, "
        f"{len(stats.reports)} divergences"
    )
    if stats.detected_fault_ids:
        print("injected bugs implicated:")
        for fault_id in sorted(stats.detected_fault_ids):
            print(f"  - {fault_id}")
    if stats.reports:
        report = stats.reports[0]
        print(f"\nfirst divergence ({' vs '.join(report.backend_pair)}):")
        print(f"  {report.description}")
        for sql in report.statements:
            print(f"  {sql}")


if __name__ == "__main__":
    main()
