"""Plan-coverage accounting for guided generation.

The paper's campaigns are uniform-random; its own Figure 3 shows plan
diversity saturating with MaxDepth, so most budget re-exercises plans
the campaign has already covered.  Query Plan Guidance (Ba & Rigger,
ICSE 2023) turns plan fingerprints into a feedback signal; this module
is the bookkeeping half of that loop: which plan fingerprints, faults,
and knob arms each shard has exercised, mergeable across shards and
fleet invocations.

The map is a grow-only CRDT (a G-counter per key): every counter is
owned by exactly one *source* (one shard of one fleet seed) and only
ever increments, so :func:`CoverageMap.merge` can take the elementwise
maximum per ``(source, key)``.  That makes merge

* **commutative** -- ``merge(a, b) == merge(b, a)``,
* **associative** -- ``merge(merge(a, b), c) == merge(a, merge(b, c))``,
* **idempotent**  -- ``merge(a, a) == a``,

which is exactly what snapshot exchange needs: the orchestrator can
merge the same shard snapshot any number of times, in any order, and
resumed fleets can re-merge a checkpoint file without double counting.
The contract is that a writer never decrements and never writes a
source it does not own.

Determinism guarantee: all views (global counts, saturation, arm
summaries) are pure functions of the map contents with sorted
iteration orders, so two equal maps render identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable

#: Key under which arm pull/yield counters live in the per-source arm
#: dicts.
PULLS = "pulls"
NEW_PLANS = "new_plans"


@dataclass
class CoverageMap:
    """Per-source plan / fault / arm counters with CRDT merge.

    ``plans[source][fingerprint]`` counts how often *source* produced a
    test whose main query planned to *fingerprint*;
    ``faults[source][fault_id]`` counts tests of *source* that fired the
    injected fault; ``arms[source][arm][PULLS | NEW_PLANS]`` counts how
    often *source* pulled a knob arm and how many globally new
    fingerprints those pulls yielded.
    """

    plans: dict[str, dict[str, int]] = field(default_factory=dict)
    faults: dict[str, dict[str, int]] = field(default_factory=dict)
    arms: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    # -- recording (single-writer per source) -------------------------------

    def record_plan(self, source: str, fingerprint: str, n: int = 1) -> None:
        bucket = self.plans.setdefault(source, {})
        bucket[fingerprint] = bucket.get(fingerprint, 0) + n

    def record_fault(self, source: str, fault_id: str, n: int = 1) -> None:
        bucket = self.faults.setdefault(source, {})
        bucket[fault_id] = bucket.get(fault_id, 0) + n

    def record_arm(
        self, source: str, arm: str, *, new_plan: bool = False
    ) -> None:
        bucket = self.arms.setdefault(source, {}).setdefault(
            arm, {PULLS: 0, NEW_PLANS: 0}
        )
        bucket[PULLS] += 1
        if new_plan:
            bucket[NEW_PLANS] += 1

    # -- merge --------------------------------------------------------------

    @staticmethod
    def merge(a: "CoverageMap", b: "CoverageMap") -> "CoverageMap":
        """Pure CRDT join of two maps (elementwise max per source)."""
        out = CoverageMap()
        out.update(a)
        out.update(b)
        return out

    def update(self, other: "CoverageMap") -> None:
        """In-place CRDT join: absorb *other* into this map."""
        _join_counts(self.plans, other.plans)
        _join_counts(self.faults, other.faults)
        for source, arms in other.arms.items():
            mine = self.arms.setdefault(source, {})
            for arm, counters in arms.items():
                slot = mine.setdefault(arm, {PULLS: 0, NEW_PLANS: 0})
                for key, value in counters.items():
                    slot[key] = max(slot.get(key, 0), value)

    # -- views --------------------------------------------------------------

    def seen_plans(self) -> set[str]:
        """Every plan fingerprint any source has produced."""
        out: set[str] = set()
        for bucket in self.plans.values():
            out |= bucket.keys()
        return out

    def global_plan_counts(self) -> dict[str, int]:
        """Fleet-wide count per fingerprint (sum across sources)."""
        out: dict[str, int] = {}
        for bucket in self.plans.values():
            for fp, n in bucket.items():
                out[fp] = out.get(fp, 0) + n
        return out

    def global_fault_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for bucket in self.faults.values():
            for fid, n in bucket.items():
                out[fid] = out.get(fid, 0) + n
        return out

    def saturated_faults(self, threshold: int) -> frozenset[str]:
        """Fault ids sighted at least *threshold* times fleet-wide --
        the faults further witnesses of which teach us nothing new."""
        return frozenset(
            fid
            for fid, n in self.global_fault_counts().items()
            if n >= threshold
        )

    def arm_summary(self) -> list[tuple[str, int, int]]:
        """``(arm, pulls, new_plans)`` rows summed across sources, in
        descending new-plan order (pulls, then name, break ties)."""
        totals: dict[str, list[int]] = {}
        for arms in self.arms.values():
            for arm, counters in arms.items():
                slot = totals.setdefault(arm, [0, 0])
                slot[0] += counters.get(PULLS, 0)
                slot[1] += counters.get(NEW_PLANS, 0)
        return sorted(
            ((arm, pulls, new) for arm, (pulls, new) in totals.items()),
            key=lambda row: (-row[2], -row[1], row[0]),
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "plans": {s: dict(b) for s, b in sorted(self.plans.items())},
            "faults": {s: dict(b) for s, b in sorted(self.faults.items())},
            "arms": {
                s: {a: dict(c) for a, c in sorted(arms.items())}
                for s, arms in sorted(self.arms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: "dict | None") -> "CoverageMap":
        if not data:
            return cls()
        return cls(
            plans={s: dict(b) for s, b in data.get("plans", {}).items()},
            faults={s: dict(b) for s, b in data.get("faults", {}).items()},
            arms={
                s: {a: dict(c) for a, c in arms.items()}
                for s, arms in data.get("arms", {}).items()
            },
        )

    def save(self, path: str) -> None:
        """Atomically write the map as JSON (checkpoint file)."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CoverageMap":
        """Load a checkpoint; a missing file starts an empty map.  A file
        that holds no checkpoint raises ValueError naming *path*."""
        if not os.path.exists(path):
            return cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                coverage = cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: not valid JSON ({exc.msg})"
                ) from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: not a coverage checkpoint ({exc})"
                ) from None
        buckets = [*coverage.plans.values(), *coverage.faults.values()]
        for arms in coverage.arms.values():
            buckets += arms.values()
        if any(type(n) is not int for b in buckets for n in b.values()):
            raise ValueError(
                f"{path}: not a coverage checkpoint (a counter is not an "
                "integer)"
            )
        return coverage


def merge_all(maps: Iterable[CoverageMap]) -> CoverageMap:
    """CRDT join of any number of maps (order irrelevant)."""
    out = CoverageMap()
    for m in maps:
        out.update(m)
    return out


def _join_counts(
    mine: dict[str, dict[str, int]], other: dict[str, dict[str, int]]
) -> None:
    for source, bucket in other.items():
        slot = mine.setdefault(source, {})
        for key, value in bucket.items():
            slot[key] = max(slot.get(key, 0), value)
