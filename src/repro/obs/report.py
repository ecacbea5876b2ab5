"""Offline trace analysis and the ``coddtest top`` frame renderer.

Two consumers of the same trace stream:

* :func:`render_trace_report` (``coddtest trace report run.jsonl``)
  reconstructs the run timeline -- shard lifecycle, guided round
  barriers, bug arrivals -- and renders a per-phase time breakdown as a
  flamegraph-style table.
* :func:`snapshot_from_trace` folds a trace into the
  :class:`~repro.obs.status.ProgressSnapshot` record the live status
  endpoint serves, so ``coddtest top`` renders one frame from either a
  URL or a trace file with the same code path.  A trace is written
  while the run goes, so it folds into the run's status so far, and a
  finished trace into its final status.

Determinism guarantee: both renderers are pure functions of the input
records -- re-rendering the same trace file is byte-identical (pinned
in ``tests/obs/test_trace_report.py``).  All times shown are offsets
from the first record's timestamp, so the absolute wall-clock epoch
never reaches the output.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.phases import merge_phase_totals
from repro.obs.status import ProgressSnapshot
from repro.obs.trace import HEADER_FIELDS, validate_record

#: Width of the flamegraph-style bar column.
_BAR_WIDTH = 32


def summarize_trace(records: Iterable[dict]) -> dict:
    """Fold trace records into one summary dict (the shared backend of
    the report and ``top`` renderers).

    A shard's finished rounds count from their ``shard_finish``
    records; a round it has started and not finished (the trace of a
    running or interrupted fleet) counts its tests and reports from its
    ``test_finish`` and ``bug_found`` records, and its unique plans and
    cache hits and misses from the latest ``progress`` record for it.
    The orchestrator writes those records, for the shard they name in
    ``for_shard``, not in the header: it also writes one when another
    worker reduced one of the shard's jobs, which says nothing of the
    shard's own age."""
    summary: dict = {
        "run": {},
        "finish": None,
        "first_ts": None,
        "last_ts": None,
        "shards": {},
        "rounds": [],
        "bugs": [],
        "clusters_new": 0,
        "clusters_saturated": 0,
        "tests": 0,
        "skipped": 0,
        "queries_ok": 0,
        "queries_err": 0,
        "phases": {},
        "cache": {},
        "unique_plans": 0,
        "reductions": {"jobs": 0, "elsewhere": 0, "seconds": 0.0},
        "invalid": 0,
        "records": 0,
    }
    # Summed over the shards: the latest cache counters of the round
    # each has started and not finished.
    live = {"cache_hits": 0, "cache_misses": 0}
    for record in records:
        summary["records"] += 1
        if validate_record(record) is not None:
            summary["invalid"] += 1
            continue
        ts = float(record["ts"])
        if summary["first_ts"] is None or ts < summary["first_ts"]:
            summary["first_ts"] = ts
        if summary["last_ts"] is None or ts > summary["last_ts"]:
            summary["last_ts"] = ts
        ev = record["ev"]
        shard = record["shard"]
        # The orchestrator's records carry no shard.
        slot = (
            _shard_slot()
            if shard is None
            else summary["shards"].setdefault(shard, _shard_slot())
        )
        slot["last_ts"] = max(slot["last_ts"], ts)
        if ev in ("run_start", "run_finish"):
            summary["run" if ev == "run_start" else "finish"] = {
                **{k: v for k, v in record.items() if k not in HEADER_FIELDS},
                "ts": ts,
            }
        elif ev == "shard_start":
            slot["starts"].append(ts)
            slot["rounds"] = max(slot["rounds"], record["round"] + 1)
            slot["open"] = {"tests": 0, "skipped": 0, "reports": 0}
        elif ev == "progress":
            # The orchestrator's record of one shard's counters.
            counted = summary["shards"].get(record["for_shard"])
            if counted is not None and counted["open"] is not None:
                counted["live"] = record
        elif ev == "reduce":
            reductions = summary["reductions"]
            reductions["jobs"] += 1
            reductions["elsewhere"] += shard != record["finder"]
            reductions["seconds"] += record["seconds"]
        elif ev == "shard_finish":
            slot["open"] = slot["live"] = None
            slot["finishes"].append(ts)
            slot["tests"] += record["tests"]
            slot["skipped"] += record["skipped"]
            slot["reports"] += record["reports"]
            slot["unique_plans"] += record.get("unique_plans", 0)
            summary["tests"] += record["tests"]
            summary["skipped"] += record["skipped"]
            summary["phases"] = merge_phase_totals(
                summary["phases"], record["phases"]
            )
            for key, value in record["cache"].items():
                summary["cache"][key] = (
                    summary["cache"].get(key, 0) + int(value)
                )
        elif ev == "round_barrier":
            summary["rounds"].append(
                {
                    "round": record["round"],
                    "rounds": record["rounds"],
                    "saturated": record["saturated"],
                    "plans": record["plans"],
                    "ts": ts,
                }
            )
        elif ev == "test_finish":
            slot["qok"] += record["qok"]
            slot["qerr"] += record["qerr"]
            summary["queries_ok"] += record["qok"]
            summary["queries_err"] += record["qerr"]
            if slot["open"] is not None:
                counted = record["status"] in ("ok", "bug")
                slot["open"]["tests" if counted else "skipped"] += 1
        elif ev == "bug_found":
            if slot["open"] is not None:
                slot["open"]["reports"] += 1
            summary["bugs"].append(
                {
                    "ts": ts,
                    "shard": shard,
                    "kind": record["kind"],
                    "oracle": record["oracle"],
                }
            )
        elif ev == "cluster_new":
            summary["clusters_new"] += 1
        elif ev == "cluster_saturated":
            summary["clusters_saturated"] += 1
    for slot in summary["shards"].values():
        for key, value in (slot.pop("open") or {}).items():
            slot[key] += value
            if key != "reports":
                summary[key] += value
        latest = slot.pop("live") or {}
        for key in live:
            live[key] += latest.get(key, 0)
        slot["unique_plans"] += latest.get("unique_plans", 0)
    # A finished run's own totals win over the shard records' sums; a
    # trace written before run_finish carried the set-union of plans
    # falls back to the per-shard-round sum, an upper bound.
    finish = summary["finish"] or {}
    slots = summary["shards"].values()
    summary["reports"] = finish.get(
        "reports", sum(slot["reports"] for slot in slots)
    )
    summary["unique_plans"] = finish.get(
        "unique_plans", sum(slot["unique_plans"] for slot in slots)
    )
    cache = summary["cache"]
    summary["cache_hits"] = live["cache_hits"] + sum(
        v for k, v in cache.items() if k.endswith("_hits")
    )
    summary["cache_misses"] = live["cache_misses"] + sum(
        v for k, v in cache.items() if k.endswith("_misses")
    )
    return summary


def _shard_slot() -> dict:
    return {
        "starts": [],
        "finishes": [],
        "rounds": 1,
        "tests": 0,
        "skipped": 0,
        "reports": 0,
        "qok": 0,
        "qerr": 0,
        "unique_plans": 0,
        "last_ts": float("-inf"),
        # Counters of the round the shard has started and not finished:
        # from its test records, and its latest progress record.
        "open": None,
        "live": None,
    }


def render_trace_report(records: Iterable[dict]) -> str:
    """Deterministic text report: run summary, timeline, per-phase
    flamegraph-style table."""
    s = summarize_trace(records)
    if s["records"] == 0:
        return "empty trace (0 records)\n"
    epoch = s["first_ts"] or 0.0
    wall = (s["last_ts"] - epoch) if s["last_ts"] is not None else 0.0
    lines: list[str] = []
    run = s["run"]
    head = "trace report"
    if run:
        head += (
            f" -- oracle {run.get('oracle', '?')}, "
            f"{run.get('workers', '?')} worker(s), "
            f"seed {run.get('seed', '?')}"
        )
    lines.append(head)
    lines.append(
        f"{s['records']} records ({s['invalid']} invalid), "
        f"trace span {wall:.2f}s"
    )
    tests = s["tests"] or sum(
        sh["tests"] for sh in s["shards"].values()
    )
    # One cluster_new event per new corpus fingerprint: new bugs, not
    # triage clusters.  The cluster count is the run_finish record's.
    totals = (
        f"tests {tests}, skipped {s['skipped']}, "
        f"queries {s['queries_ok']} ok / {s['queries_err']} err, "
        f"reports {s['reports']}, new bugs {s['clusters_new']}"
    )
    if (s["finish"] or {}).get("clusters") is not None:
        totals += f", clusters {s['finish']['clusters']}"
    if s["clusters_saturated"]:
        totals += f", faults saturated {s['clusters_saturated']}"
    lines.append(totals)
    if s["cache"]:
        hits, misses = s["cache_hits"], s["cache_misses"]
        total = hits + misses
        rate = (100 * hits / total) if total else 0.0
        lines.append(
            f"cache {hits} hits / {misses} misses ({rate:.1f}% hit rate)"
        )
    reductions = s["reductions"]
    if reductions["jobs"]:
        lines.append(
            f"ddmin {reductions['jobs']} jobs, {reductions['elsewhere']} "
            "on a worker other than their finder's, "
            f"{reductions['seconds']:.2f}s reducing"
        )

    lines.append("")
    lines.append("timeline (offsets from first record):")
    for shard in sorted(s["shards"]):
        slot = s["shards"][shard]
        start = min(slot["starts"]) - epoch if slot["starts"] else 0.0
        end = max(slot["finishes"]) - epoch if slot["finishes"] else wall
        lines.append(
            f"  shard {shard}: {start:8.2f}s -> {end:8.2f}s  "
            f"{slot['tests']:6d} tests  {slot['reports']:3d} reports"
            + (
                f"  ({slot['rounds']} rounds)"
                if slot["rounds"] > 1
                else ""
            )
        )
    for barrier in s["rounds"]:
        lines.append(
            f"  round barrier {barrier['round'] + 1}/{barrier['rounds']}"
            f" at {barrier['ts'] - epoch:8.2f}s  "
            f"{barrier['plans']} plans covered, "
            f"{barrier['saturated']} faults saturated"
        )
    for bug in s["bugs"][:10]:
        lines.append(
            f"  bug at {bug['ts'] - epoch:8.2f}s  shard {bug['shard']}"
            f"  [{bug['kind']}] via {bug['oracle']}"
        )
    if len(s["bugs"]) > 10:
        lines.append(f"  ... and {len(s['bugs']) - 10} more bugs")

    lines.append("")
    lines.append(render_phase_table(s["phases"]))
    return "\n".join(lines) + "\n"


def render_phase_table(phases: "dict[str, dict]") -> str:
    """Flamegraph-style per-phase table (widest phase fills the bar)."""
    if not phases:
        return "per-phase breakdown: no phase data in trace"
    total = sum(rec["seconds"] for rec in phases.values())
    widest = max(rec["seconds"] for rec in phases.values())
    lines = ["per-phase breakdown (profiled time):"]
    lines.append(
        f"  {'phase':10s} {'calls':>10s} {'seconds':>10s} {'share':>7s}"
    )
    for phase, rec in phases.items():
        share = (rec["seconds"] / total) if total > 0 else 0.0
        bar_len = (
            int(round(_BAR_WIDTH * rec["seconds"] / widest))
            if widest > 0
            else 0
        )
        lines.append(
            f"  {phase:10s} {rec['calls']:>10d} {rec['seconds']:>10.3f} "
            f"{100 * share:>6.1f}% {'#' * bar_len}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ``coddtest top``
# ---------------------------------------------------------------------------


def snapshot_from_trace(records: Iterable[dict]) -> dict:
    """The status snapshot a trace folds into.

    A finished trace gives the run's final status; only ``elapsed_s``,
    ``tests_per_second`` and the shards' ``age_s`` are measured from
    the trace's timestamps instead.  A shard is ``done`` once it has
    finished every round it started, and its ``age_s`` counts from its
    last record of any kind, so the trace of a running fleet, or one
    cut mid-round, shows the round's shards running, with the tests
    they have finished.  Traces whose ``run_finish`` lacks
    ``unique_plans``, ``unique_reports`` and ``clusters`` (or that have
    no ``run_finish``) show the summed shard plans and null counts."""
    s = summarize_trace(records)
    epoch = s["first_ts"] or 0.0
    last = epoch if s["last_ts"] is None else s["last_ts"]
    finish = s["finish"] or {}
    run = s["run"]
    last_round = s["rounds"][-1] if s["rounds"] else None
    return ProgressSnapshot(
        state="running" if s["finish"] is None else "done",
        oracle=run.get("oracle"),
        seed=run.get("seed"),
        workers=run.get("workers", len(s["shards"]) or 1),
        elapsed=last - epoch,
        tests=s["tests"],
        skipped=s["skipped"],
        queries_ok=s["queries_ok"],
        queries_err=s["queries_err"],
        reports=s["reports"],
        unique_reports=finish.get("unique_reports"),
        clusters=finish.get("clusters"),
        cache_hits=s["cache_hits"],
        cache_misses=s["cache_misses"],
        unique_plans=s["unique_plans"],
        round=None if last_round is None else last_round["round"] + 1,
        rounds=None if last_round is None else last_round["rounds"],
        shards={
            shard: {
                "tests": slot["tests"],
                "reports": slot["reports"],
                "done": 0 < len(slot["finishes"]) == len(slot["starts"]),
                "age_s": round(last - slot["last_ts"], 3),
            }
            for shard, slot in s["shards"].items()
        },
    ).to_status()


def render_top_frame(snapshot: dict) -> str:
    """One ``top``-style frame of a status snapshot (live or replayed)."""
    lines: list[str] = []
    oracle = snapshot.get("oracle") or "?"
    lines.append(
        f"coddtest top -- {snapshot.get('state', '?'):7s} "
        f"oracle {oracle}, {snapshot.get('workers', '?')} worker(s), "
        f"seed {snapshot.get('seed', '?')}"
    )
    cache = snapshot.get("cache") or {}
    summary = [
        f"elapsed {snapshot.get('elapsed_s', 0.0):7.1f}s",
        f"tests {snapshot.get('tests', 0)}"
        f" ({snapshot.get('tests_per_second', 0.0):.1f}/s)",
        f"QPT {snapshot.get('qpt', 0.0):.2f}",
        f"cache {100 * cache.get('hit_rate', 0.0):.1f}%",
        f"plans {snapshot.get('unique_plans', 0)}",
    ]
    reports = f"reports {snapshot.get('reports', 0)}"
    if snapshot.get("unique_reports") is not None:
        reports += f" ({snapshot['unique_reports']} unique)"
    summary.append(reports)
    if snapshot.get("clusters") is not None:
        summary.append(f"clusters {snapshot['clusters']}")
    if snapshot.get("round") is not None:
        summary.append(
            f"round {snapshot['round']}/{snapshot.get('rounds', '?')}"
        )
    lines.append("  ".join(summary))
    shards = snapshot.get("shards") or {}
    if shards:
        lines.append(
            f"  {'shard':>5s} {'tests':>8s} {'reports':>8s} "
            f"{'age':>7s}  status"
        )
        for shard in sorted(shards, key=lambda s: int(s)):
            slot = shards[shard]
            status = "done" if slot.get("done") else "running"
            age = slot.get("age_s", 0.0)
            if not slot.get("done") and age > 10.0:
                status = f"stalled? ({age:.0f}s silent)"
            lines.append(
                f"  {shard:>5s} {slot.get('tests', 0):>8d} "
                f"{slot.get('reports', 0):>8d} {age:>6.1f}s  {status}"
            )
    return "\n".join(lines) + "\n"
