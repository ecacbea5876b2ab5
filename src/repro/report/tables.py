"""Text rendering of the paper's tables and figures.

Each function takes measured data (produced by the benchmark harness or
the examples) and renders a table in the same row/column layout as the
paper, so paper-vs-measured comparison is a visual diff.  Every
renderer is deterministic in its inputs: no timestamps, no environment
probes -- the same data renders byte-identically.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.dialects.catalog import FAULTS_BY_ID
from repro.minidb.faults import BugType

PROFILE_LABELS = {
    "sqlite": "SQLite",
    "mysql": "MySQL",
    "cockroachdb": "CockroachDB",
    "duckdb": "DuckDB",
    "tidb": "TiDB",
}


def render_table1(found_by_profile: Mapping[str, set[str]]) -> str:
    """Paper Table 1: bugs found per DBMS, by type and status.

    *found_by_profile* maps profile name to the set of detected fault
    ids; types and statuses come from the catalog.
    """
    header = (
        f"{'DBMS':13s} {'Logic':>6s} {'Internal':>9s} {'Crash':>6s} "
        f"{'Hang':>5s} {'Fixed':>6s} {'Verified':>9s} {'Total':>6s}"
    )
    lines = [header, "-" * len(header)]
    totals = [0] * 7
    for profile in ("sqlite", "mysql", "cockroachdb", "duckdb", "tidb"):
        found = found_by_profile.get(profile, set())
        faults = [FAULTS_BY_ID[fid] for fid in found if fid in FAULTS_BY_ID]
        row = [
            sum(f.bug_type is BugType.LOGIC for f in faults),
            sum(f.bug_type is BugType.INTERNAL_ERROR for f in faults),
            sum(f.bug_type is BugType.CRASH for f in faults),
            sum(f.bug_type is BugType.HANG for f in faults),
            sum(f.status.value == "fixed" for f in faults),
            sum(f.status.value == "verified" for f in faults),
            len(faults),
        ]
        totals = [a + b for a, b in zip(totals, row)]
        lines.append(
            f"{PROFILE_LABELS[profile]:13s} {row[0]:>6d} {row[1]:>9d} "
            f"{row[2]:>6d} {row[3]:>5d} {row[4]:>6d} {row[5]:>9d} {row[6]:>6d}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':13s} {totals[0]:>6d} {totals[1]:>9d} {totals[2]:>6d} "
        f"{totals[3]:>5d} {totals[4]:>6d} {totals[5]:>9d} {totals[6]:>6d}"
    )
    return "\n".join(lines)


def render_detection_table(matrix: Mapping[str, set[str]]) -> str:
    """Paper Table 2: number of detectable bugs by test oracle."""
    codd = matrix.get("coddtest", set())
    others = set()
    for name, found in matrix.items():
        if name != "coddtest":
            others |= found
    lines = [
        f"{'Oracle':12s} {'Detectable logic bugs':>22s}",
        "-" * 35,
    ]
    for name in ("norec", "tlp", "dqe"):
        lines.append(f"{name.upper():12s} {len(matrix.get(name, set())):>22d}")
    lines.append(f"{'Only CODD':12s} {len(codd - others):>22d}")
    lines.append(f"{'CODD total':12s} {len(codd):>22d}")
    return "\n".join(lines)


def render_efficiency_table(rows: Iterable[Mapping]) -> str:
    """Paper Table 3: per-oracle efficiency metrics.

    Each row needs: oracle, tests, queries_ok, queries_err, qpt,
    unique_plans, coverage, and the throughput without the evaluation
    cache and as shipped (tests_per_second, shipped_tests_per_second).
    """
    header = (
        f"{'Oracle':18s} {'#tests':>9s} {'#ok q':>9s} {'#err q':>8s} "
        f"{'QPT':>6s} {'plans':>7s} {'branch%':>8s} "
        f"{'uncached t/s':>12s} {'shipped t/s':>12s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['oracle']:18s} {row['tests']:>9d} {row['queries_ok']:>9d} "
            f"{row['queries_err']:>8d} {row['qpt']:>6.2f} "
            f"{row['unique_plans']:>7d} {100 * row['coverage']:>7.2f}% "
            f"{row['tests_per_second']:>12.1f} "
            f"{row['shipped_tests_per_second']:>12.1f}"
        )
    return "\n".join(lines)


def render_fleet_table(shards: Iterable, merged, past_cap: int = 0) -> str:
    """Per-shard and merged stats of a fleet run.

    *shards* is a list of :class:`~repro.runner.campaign.CampaignStats`
    in shard order; *merged* is their fleet-wide merge (plans as
    set-union, coverage as max, QPT recomputed from merged counters).
    *past_cap* reports were filed past ``--max-reports`` and cut from
    the merged list; a non-zero count is shown next to the merged row.
    """
    header = (
        f"{'Shard':8s} {'#tests':>8s} {'#skip':>7s} {'#ok q':>9s} "
        f"{'#err q':>8s} {'QPT':>6s} {'plans':>7s} {'reports':>8s} "
        f"{'tests/s':>9s}"
    )
    lines = [header, "-" * len(header)]

    def row(label: str, stats) -> str:
        return (
            f"{label:8s} {stats.tests:>8d} {stats.skipped:>7d} "
            f"{stats.queries_ok:>9d} {stats.queries_err:>8d} "
            f"{stats.qpt:>6.2f} {len(stats.unique_plans):>7d} "
            f"{len(stats.reports):>8d} {stats.tests_per_second:>9.1f}"
        )

    for i, stats in enumerate(shards):
        lines.append(row(str(i), stats))
    lines.append("-" * len(header))
    merged_row = row("merged", merged)
    if past_cap:
        merged_row += f"  (+{past_cap} past --max-reports)"
    lines.append(merged_row)
    return "\n".join(lines)


def render_maxdepth_series(series: Mapping[int, Mapping[str, float]]) -> str:
    """Figure 2: MaxDepth sweep (time/query, #tests, unique plans, and
    tests/s without the evaluation cache and as shipped, with the
    shipped run's cache hit rate)."""
    header = (
        f"{'MaxDepth':>8s} {'us/query':>10s} {'#tests':>8s} {'plans':>7s} "
        f"{'uncached t/s':>12s} {'shipped t/s':>12s} {'hit%':>6s}"
    )
    lines = [header, "-" * len(header)]
    for depth in sorted(series):
        row = series[depth]
        lines.append(
            f"{depth:>8d} {row['us_per_query']:>10.1f} "
            f"{int(row['tests']):>8d} {int(row['unique_plans']):>7d} "
            f"{row['tests_per_second']:>12.1f} "
            f"{row['shipped_tests_per_second']:>12.1f} "
            f"{100 * row['hit_rate']:>5.1f}%"
        )
    return "\n".join(lines)
