"""Branch-coverage instrumentation for MiniDB.

The paper's Table 3 reports *branch coverage* of the DBMS under test
(measured with gcov on SQLite).  MiniDB is the DBMS under test here, so we
instrument its own decision points: engine code calls
:meth:`CoverageTracker.hit` with a stable tag at each interesting branch
(one tag per branch direction).  The denominator is the static registry of
all declared tags, so the percentage is comparable across campaigns.

The tracker is owned by the :class:`~repro.minidb.engine.Engine`; campaigns
reset it between runs.
"""

from __future__ import annotations

#: Registry of every branch tag the engine can emit.  Modules register
#: their tags at import time via :func:`register_tags`.
_ALL_TAGS: set[str] = set()


def register_tags(*tags: str) -> None:
    """Declare branch tags (idempotent)."""
    _ALL_TAGS.update(tags)


class CoverageTracker:
    """Per-engine set of branch tags hit since the last reset."""

    def __init__(self) -> None:
        self._hits: set[str] = set()

    def hit(self, tag: str) -> None:
        self._hits.add(tag)

    def reset(self) -> None:
        self._hits.clear()

    @property
    def hits(self) -> frozenset[str]:
        return frozenset(self._hits)

    def branch_coverage(self) -> float:
        """Fraction of declared branches exercised (0.0 - 1.0)."""
        total = len(_ALL_TAGS)
        if total == 0:
            return 0.0
        return len(self._hits & _ALL_TAGS) / total
