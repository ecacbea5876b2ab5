"""Deterministic Table-1-style rendering of a triaged corpus.

Three formats over the same underlying structure (built once by
:func:`build_triage`):

* **text** -- aligned columns for terminals, the shape of paper Table 1,
* **markdown** -- pipe tables for READMEs and issue reports,
* **json** -- the full structure (untruncated plan signatures) for
  machines.

Determinism guarantee: output is a pure function of the cluster list
(and the optional replay verdicts).  Ordering is the clusters' stable
sort key, there are no timestamps, hostnames, or wall-clock figures,
and JSON keys are sorted -- rendering the same corpus twice is
byte-identical.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import json

from repro.dialects import FAULTS_BY_ID
from repro.triage.cluster import NO_FAULT_LABEL, Cluster
from repro.triage.replay import ReplayVerdict

#: Plan signatures are digests; this many characters disambiguate in
#: human-facing tables (JSON always carries the full signature).
_PLAN_CHARS = 16

KINDS = ("logic", "internal error", "crash", "hang")


def build_triage(
    clusters: "list[Cluster]",
    verdicts: "Mapping[str, ReplayVerdict] | None" = None,
) -> dict:
    """The JSON-ready triage structure all renderers share."""
    by_kind = _count(c.kind for c in clusters)

    fault_rows: dict[str, dict] = {}
    for cluster in clusters:
        for fid in cluster.faults or (NO_FAULT_LABEL,):
            row = fault_rows.setdefault(
                fid,
                {
                    "fault": fid,
                    "dbms": _fault_dbms(fid),
                    "by_kind": {},
                    "by_oracle": {},
                    "clusters": 0,
                    "sightings": 0,
                },
            )
            row["clusters"] += 1
            row["sightings"] += cluster.sightings
            row["by_kind"][cluster.kind] = (
                row["by_kind"].get(cluster.kind, 0) + 1
            )
            for oracle in cluster.oracles:
                row["by_oracle"][oracle] = row["by_oracle"].get(oracle, 0) + 1

    # Ground-truth faults sorted by id; the no-ground-truth row last.
    fault_order = sorted(f for f in fault_rows if f != NO_FAULT_LABEL)
    if NO_FAULT_LABEL in fault_rows:
        fault_order.append(NO_FAULT_LABEL)

    # Per-backend(-pair) provenance: which backends produced which
    # clusters.  The label matches the cluster table's Backends column
    # ("primary|secondary" for differential findings, "single" for
    # one-engine oracles), so multi-backend campaign reports split
    # their Table 1 by provenance.
    backend_rows: dict[str, dict] = {}
    for cluster in clusters:
        label = (
            "|".join(cluster.backend_pair)
            if cluster.backend_pair
            else "single"
        )
        row = backend_rows.setdefault(
            label,
            {
                "backends": label,
                "by_kind": {},
                "clusters": 0,
                "entries": 0,
                "sightings": 0,
            },
        )
        row["clusters"] += 1
        row["entries"] += len(cluster.entries)
        row["sightings"] += cluster.sightings
        row["by_kind"][cluster.kind] = (
            row["by_kind"].get(cluster.kind, 0) + 1
        )
    backend_order = sorted(b for b in backend_rows if b != "single")
    if "single" in backend_rows:
        backend_order.append("single")

    cluster_dicts = []
    for cluster in clusters:
        verdict = (verdicts or {}).get(cluster.cluster_id)
        first = cluster.first_seen
        cluster_dicts.append(
            {
                "id": cluster.cluster_id,
                "kind": cluster.kind,
                "faults": list(cluster.faults),
                "plan_signature": cluster.plan_signature or None,
                "backend_pair": (
                    list(cluster.backend_pair)
                    if cluster.backend_pair
                    else None
                ),
                "oracles": list(cluster.oracles),
                "entries": len(cluster.entries),
                "sightings": cluster.sightings,
                "first_seen": {
                    "shard": first.first_seen_shard,
                    "seed": first.first_seen_seed,
                },
                "reduced_size": cluster.reduced_size,
                "witness_fingerprint": cluster.representative.fingerprint,
                "replay": (
                    None
                    if verdict is None
                    else {
                        "status": verdict.status,
                        "detail": verdict.detail,
                        "witness": verdict.witness,
                    }
                ),
            }
        )

    summary = {
        "entries": sum(len(c.entries) for c in clusters),
        "sightings": sum(c.sightings for c in clusters),
        "clusters": len(clusters),
        "by_kind": by_kind,
    }
    if verdicts is not None:
        summary["replay"] = _count(v.status for v in verdicts.values())

    return {
        "summary": summary,
        "faults": [fault_rows[f] for f in fault_order],
        "backends": [backend_rows[b] for b in backend_order],
        "clusters": cluster_dicts,
    }


def render_triage_json(
    clusters: "list[Cluster]",
    verdicts: "Mapping[str, ReplayVerdict] | None" = None,
) -> str:
    return json.dumps(
        build_triage(clusters, verdicts), indent=2, sort_keys=True
    )


def render_triage_text(
    clusters: "list[Cluster]",
    verdicts: "Mapping[str, ReplayVerdict] | None" = None,
) -> str:
    data = build_triage(clusters, verdicts)
    lines = _summary_header(data)
    for _, header, rows, total in _sections(data, verdicts is not None):
        lines.append("")
        lines.extend(_table(header, rows, total))
    return "\n".join(lines)


def render_triage_markdown(
    clusters: "list[Cluster]",
    verdicts: "Mapping[str, ReplayVerdict] | None" = None,
) -> str:
    data = build_triage(clusters, verdicts)
    lines = ["# Corpus triage", ""]
    for line in _summary_header(data):
        lines.append(f"- {line}")
    for title, header, rows, total in _sections(data, verdicts is not None):
        lines += ["", f"## {title}", ""]
        lines.extend(_md_table(header, rows + ([total] if total else [])))
    return "\n".join(lines)


def render_triage(
    clusters: "list[Cluster]",
    verdicts: "Mapping[str, ReplayVerdict] | None" = None,
    fmt: str = "text",
) -> str:
    if fmt == "text":
        return render_triage_text(clusters, verdicts)
    if fmt == "markdown":
        return render_triage_markdown(clusters, verdicts)
    if fmt == "json":
        return render_triage_json(clusters, verdicts)
    raise ValueError(f"unknown triage format {fmt!r}")


def triage_summary_lines(
    clusters: "list[Cluster]",
    new_unique: "int | None" = None,
    duplicates: "int | None" = None,
    cap: int = 6,
) -> list[str]:
    """Compact end-of-run summary for the fleet CLI.

    One headline plus the top clusters by sightings -- the triage view
    of "what did this run find", replacing a raw entry count.
    """
    entries = sum(len(c.entries) for c in clusters)
    headline = (
        f"corpus triage: {entries} distinct bugs in "
        f"{len(clusters)} cluster(s)"
    )
    if new_unique is not None:
        headline += (
            f" ({new_unique} new unique, {duplicates or 0} duplicates "
            "this run)"
        )
    lines = [headline]
    ranked = sorted(
        clusters, key=lambda c: (-c.sightings, c.sort_key())
    )
    for cluster in ranked[:cap]:
        lines.append(
            f"  [{cluster.kind}] {cluster.fault_label} "
            f"via {'/'.join(cluster.oracles)}: "
            f"{len(cluster.entries)} witness(es), "
            f"{cluster.sightings} sighting(s), "
            f"best witness {cluster.reduced_size} stmt(s)"
        )
    if len(ranked) > cap:
        lines.append(f"  ... and {len(ranked) - cap} more cluster(s)")
    return lines


# -- shared row/column builders ---------------------------------------------


def _count(items: Iterable[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


def _fault_dbms(fault_id: str) -> str:
    fault = FAULTS_BY_ID.get(fault_id)
    return fault.profile if fault is not None else "-"


def _sections(
    data: dict, with_replay: bool
) -> "list[tuple[str, list[str], list[list[str]], list[str] | None]]":
    """The ``(title, header, rows, total)`` tables both text renderers
    lay out, in order; the per-oracle table only when a fault row names
    an oracle."""
    sections = [
        (
            "Distinct clusters by ground-truth fault",
            [
                "Fault", "DBMS", "Logic", "Internal", "Crash", "Hang",
                "Clusters", "Sightings",
            ],
            [_fault_table_row(row) for row in data["faults"]],
            _fault_table_total(data["summary"]),
        )
    ]
    oracle_names = _oracle_names(data)
    if oracle_names:
        sections.append(
            (
                "Clusters per fault and oracle",
                ["Fault"] + list(oracle_names),
                [
                    [row["fault"]]
                    + [str(row["by_oracle"].get(o, 0)) for o in oracle_names]
                    for row in data["faults"]
                ],
                None,
            )
        )
    sections.append(
        (
            "Clusters by backend provenance",
            [
                "Backends", "Logic", "Internal", "Crash", "Hang",
                "Clusters", "Entries", "Sightings",
            ],
            [_backend_table_row(row) for row in data["backends"]],
            None,
        )
    )
    sections.append(
        (
            "Clusters",
            _cluster_table_header(with_replay),
            [_cluster_table_row(c, with_replay) for c in data["clusters"]],
            None,
        )
    )
    return sections


def _summary_header(data: dict) -> list[str]:
    s = data["summary"]
    lines = [
        f"corpus triage: {s['entries']} distinct bugs "
        f"({s['sightings']} sightings) in {s['clusters']} cluster(s)",
        "by kind: "
        + (
            ", ".join(
                f"{k} {s['by_kind'][k]}" for k in KINDS if k in s["by_kind"]
            )
            or "none"
        ),
    ]
    if "replay" in s:
        replay = s["replay"]
        lines.append(
            "replay: "
            + (
                ", ".join(
                    f"{status} {replay[status]}"
                    for status in ("reproduces", "stale", "unverifiable")
                    if status in replay
                )
                or "none"
            )
        )
    return lines


def _fault_table_row(row: dict) -> list[str]:
    by_kind = row["by_kind"]
    return [
        row["fault"],
        row["dbms"],
        str(by_kind.get("logic", 0)),
        str(by_kind.get("internal error", 0)),
        str(by_kind.get("crash", 0)),
        str(by_kind.get("hang", 0)),
        str(row["clusters"]),
        str(row["sightings"]),
    ]


def _fault_table_total(summary: dict) -> list[str]:
    """Totals come from the cluster set, not the fault rows: a cluster
    implicating several faults appears in each of their rows but must
    count once here, so the Total row always agrees with the header."""
    by_kind = summary["by_kind"]
    return [
        "Total",
        "",
        str(by_kind.get("logic", 0)),
        str(by_kind.get("internal error", 0)),
        str(by_kind.get("crash", 0)),
        str(by_kind.get("hang", 0)),
        str(summary["clusters"]),
        str(summary["sightings"]),
    ]


def _backend_table_row(row: dict) -> list[str]:
    by_kind = row["by_kind"]
    return [
        row["backends"],
        str(by_kind.get("logic", 0)),
        str(by_kind.get("internal error", 0)),
        str(by_kind.get("crash", 0)),
        str(by_kind.get("hang", 0)),
        str(row["clusters"]),
        str(row["entries"]),
        str(row["sightings"]),
    ]


def _cluster_table_header(with_replay: bool) -> list[str]:
    header = [
        "Cluster", "Kind", "Fault", "Backends", "Plan", "Oracles",
        "Entries", "Seen", "First(shard/seed)", "Stmts",
    ]
    if with_replay:
        header.append("Replay")
    return header


def _cluster_table_row(c: dict, with_replay: bool) -> list[str]:
    first = c["first_seen"]
    shard = "?" if first["shard"] is None else str(first["shard"])
    seed = "?" if first["seed"] is None else str(first["seed"])
    plan = c["plan_signature"] or "-"
    row = [
        c["id"],
        c["kind"],
        ",".join(c["faults"]) or NO_FAULT_LABEL,
        "|".join(c["backend_pair"]) if c["backend_pair"] else "single",
        plan[:_PLAN_CHARS],
        "/".join(c["oracles"]),
        str(c["entries"]),
        str(c["sightings"]),
        f"{shard}/{seed}",
        str(c["reduced_size"]),
    ]
    if with_replay:
        row.append(c["replay"]["status"] if c["replay"] else "-")
    return row


def _oracle_names(data: dict) -> tuple[str, ...]:
    names: set[str] = set()
    for row in data["faults"]:
        names |= set(row["by_oracle"])
    return tuple(sorted(names))


# -- low-level table layout -------------------------------------------------


def _table(
    header: list[str],
    rows: list[list[str]],
    total: "list[str] | None" = None,
) -> list[str]:
    """Aligned fixed-width text table (first column left, rest right)."""
    all_rows = [header] + rows + ([total] if total else [])
    widths = [
        max(len(row[i]) for row in all_rows) for i in range(len(header))
    ]

    def fmt(row: list[str]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        return "  ".join(cells).rstrip()

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [fmt(header), rule]
    lines += [fmt(row) for row in rows]
    if total:
        lines += [rule, fmt(total)]
    return lines


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    def cell(text: str) -> str:
        # Literal pipes (differential backend labels, plan signatures)
        # would otherwise split the Markdown cell.
        return text.replace("|", "\\|")

    lines = [
        "| " + " | ".join(cell(h) for h in header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return lines
