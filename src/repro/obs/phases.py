"""Phase profiling: where does a test's wall-clock go?

The campaign hot path decomposes into four phases (the ones the paper's
Figure 2-style throughput claims and the engine's evaluation work --
caching -- need to see separately):

* ``generate`` -- random state construction plus query/expression
  generation (hooked in :class:`repro.runner.campaign.Campaign` and the
  CODDTest oracle),
* ``parse``    -- SQL text to AST (hooked in the MiniDB adapter; with
  an attached :class:`repro.perf.EvalCache` this phase shrinks to memo
  lookups),
* ``execute``  -- engine execution of the parsed statement (every
  adapter),
* ``compare``  -- oracle result comparison (:meth:`repro.oracles_base.
  Oracle.compare_rows`).

Timers use ``time.perf_counter`` and cost two clock reads plus one
dict update per scope, which is noise next to a parse or an engine
execution; the profiler is therefore always on.  Phase totals are
wall-clock and live only in the obs layer: they are excluded from
:meth:`repro.runner.campaign.CampaignStats.signature` exactly like
``cache_stats``, so timings never change a deterministic output.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Canonical phase order for rendering (unknown phases sort after).
PHASES = ("generate", "parse", "execute", "compare")


class PhaseProfiler:
    """Scoped wall-clock accumulation per phase.

    The inline ``begin()``/``end()`` pair is the hot-path API (no
    context-manager frame); :meth:`phase` wraps it for cool paths.
    """

    __slots__ = ("totals",)

    def __init__(self) -> None:
        #: ``totals[phase] == [calls, seconds]``
        self.totals: dict[str, list] = {}

    def begin(self) -> float:
        return time.perf_counter()

    def end(self, phase: str, t0: float) -> None:
        slot = self.totals.get(phase)
        if slot is None:
            slot = self.totals[phase] = [0, 0.0]
        slot[0] += 1
        slot[1] += time.perf_counter() - t0

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end(name, t0)

    def to_dict(self) -> dict[str, dict]:
        """``{phase: {"calls": n, "seconds": s}}`` in canonical order."""
        return {
            phase: {"calls": slot[0], "seconds": slot[1]}
            for phase, slot in sorted(
                self.totals.items(), key=lambda kv: _phase_key(kv[0])
            )
        }


def _phase_key(phase: str) -> tuple:
    try:
        return (PHASES.index(phase), phase)
    except ValueError:
        return (len(PHASES), phase)


def merge_phase_totals(
    a: "dict[str, dict]", b: "dict[str, dict]"
) -> dict[str, dict]:
    """Sum two ``to_dict`` payloads (shards ran disjoint work)."""
    out: dict[str, dict] = {}
    for part in (a, b):
        for phase, rec in part.items():
            slot = out.setdefault(phase, {"calls": 0, "seconds": 0.0})
            slot["calls"] += int(rec.get("calls", 0))
            slot["seconds"] += float(rec.get("seconds", 0.0))
    return {
        phase: out[phase]
        for phase in sorted(out, key=_phase_key)
    }


def format_phase_breakdown(
    phases: "dict[str, dict]", wall_seconds: float = 0.0
) -> str:
    """One-line per-phase breakdown for CLI stats reporting.

    Percentages are of *wall_seconds* when given (the residual becomes
    ``other``: scheduling, bookkeeping, unprofiled oracles), else of
    the profiled total.
    """
    if not phases:
        return ""
    profiled = sum(rec["seconds"] for rec in phases.values())
    denom = wall_seconds if wall_seconds > profiled else profiled
    if denom <= 0:
        return ""
    parts = [
        f"{phase} {rec['seconds']:.2f}s ({100 * rec['seconds'] / denom:.0f}%)"
        for phase, rec in phases.items()
    ]
    if wall_seconds > profiled:
        parts.append(
            f"other {wall_seconds - profiled:.2f}s "
            f"({100 * (wall_seconds - profiled) / denom:.0f}%)"
        )
    return "phases: " + " | ".join(parts)
