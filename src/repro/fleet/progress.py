"""Periodic fleet progress reporting.

The orchestrator's collector builds a
:class:`~repro.obs.status.ProgressSnapshot` per progress message and
hands it here; this module owns formatting and rate-limiting so
campaign logic never touches a terminal.  Lines go to stderr by
default, keeping stdout clean for the rendered result tables.  Progress lines are the
one deliberately non-deterministic surface (they report wall-clock
throughput); everything on stdout stays a pure function of the seed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TextIO

from repro.obs.status import ProgressSnapshot


@dataclass
class ProgressPrinter:
    """Rate-limited one-line progress renderer."""

    interval: float = 2.0
    stream: TextIO = field(default_factory=lambda: sys.stderr)
    _last: float = field(default=0.0, repr=False)

    def maybe_print(self, snap: ProgressSnapshot) -> bool:
        """Print if at least *interval* seconds passed since the last
        line; returns whether a line was emitted."""
        now = time.monotonic()
        if now - self._last < self.interval:
            return False
        self._last = now
        self.stream.write(format_progress(snap) + "\n")
        self.stream.flush()
        return True

    def final(self, snap: ProgressSnapshot) -> None:
        self.stream.write(format_progress(snap, final=True) + "\n")
        self.stream.flush()


def format_progress(snap: ProgressSnapshot, final: bool = False) -> str:
    tag = "fleet done" if final else "fleet"
    parts = [
        f"[{tag} {snap.elapsed:6.1f}s]",
        f"{snap.shards_done}/{snap.workers} shards",
        f"{snap.tests} tests ({snap.tests_per_second:.1f}/s)",
        f"QPT {snap.qpt:.2f}",
    ]
    if snap.round is not None and snap.rounds is not None:
        parts.append(f"round {snap.round}/{snap.rounds}")
    hit_rate = snap.cache_hit_rate
    if hit_rate is not None:
        parts.append(f"cache {100 * hit_rate:.0f}%")
    if snap.unique_reports is not None:
        dedup = snap.dedup_rate
        dedup_text = f", dedup {100 * dedup:.0f}%" if dedup is not None else ""
        parts.append(
            f"{snap.reports} reports ({snap.unique_reports} unique{dedup_text})"
        )
    else:
        parts.append(f"{snap.reports} reports")
    if snap.clusters is not None:
        parts.append(f"{snap.clusters} clusters")
    return " | ".join(parts)
