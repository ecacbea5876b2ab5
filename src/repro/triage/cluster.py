"""Clustering corpus entries into root-cause candidates.

A cluster is the triage unit of "one bug": entries sharing the same
ground-truth fault ids, the same plan-fingerprint signature, the same
backend pair, and the same failure kind.  Fault ids are the strongest
signal (they *are* the root cause on MiniDB), plan fingerprints split
no-ground-truth findings by the plan that exposed them, and the
backend pair keeps a MiniDB-vs-SQLite divergence apart from the same
statements diverging between other engines.  Query Plan Guidance's
"distinct plans, distinct behaviors" holds for coverage, not for the
identity of a bug: one fault shows up under many plans, so the plan
key splits it.  On sqlite (seed 5, 2,000 tests) 12 fault sets made 81
clusters; ROADMAP item 5 is the fix.

Determinism guarantee: :func:`cluster_corpus` is a pure function of the
entry list -- same entries (in any order) produce the same cluster set,
and the returned list is sorted by a stable key (fault ids, plan
signature, backend pair, kind), never by discovery time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.fleet.corpus import CorpusEntry

#: Rendered stand-ins for absent key components.
NO_FAULT_LABEL = "(no ground truth)"
NO_PLAN_LABEL = "-"

ClusterKey = tuple


def cluster_key(entry: CorpusEntry) -> ClusterKey:
    """The identity an entry is clustered under.

    ``(fault ids, plan signature, backend pair, kind)`` -- the
    description and exact statement text are deliberately *not* part of
    the key: hundreds of superficially different witnesses of one fault
    share the key and collapse into one cluster.
    """
    return (
        tuple(sorted(entry.fired_faults)),
        entry.plan_fingerprint or "",
        tuple(entry.backend_pair) if entry.backend_pair else None,
        entry.kind,
    )


@dataclass
class Cluster:
    """One root-cause candidate: all corpus entries sharing a key."""

    faults: tuple[str, ...]
    plan_signature: str
    backend_pair: tuple[str, str] | None
    kind: str
    #: Entries in input (discovery) order; the first is the first seen.
    entries: list[CorpusEntry] = field(default_factory=list)

    @property
    def cluster_id(self) -> str:
        """Short stable id, a digest of the key (not of discovery order)."""
        payload = json.dumps(
            [list(self.faults), self.plan_signature,
             list(self.backend_pair) if self.backend_pair else None,
             self.kind],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:10]

    @property
    def fault_label(self) -> str:
        return ",".join(self.faults) if self.faults else NO_FAULT_LABEL

    @property
    def plan_label(self) -> str:
        return self.plan_signature or NO_PLAN_LABEL

    @property
    def backend_label(self) -> str:
        if self.backend_pair is None:
            return "single"
        return "|".join(self.backend_pair)

    @property
    def oracles(self) -> tuple[str, ...]:
        return tuple(sorted({e.oracle for e in self.entries}))

    @property
    def sightings(self) -> int:
        """Total times any entry of this cluster was seen (dup counter)."""
        return sum(e.times_seen for e in self.entries)

    @property
    def first_seen(self) -> CorpusEntry:
        return self.entries[0]

    @property
    def representative(self) -> CorpusEntry:
        """The entry to show a human (and to replay): reduced witnesses
        beat unreduced ones, shorter beats longer, and two witnesses
        sharing a reduced length tie-break on fingerprint -- never on
        insertion order, so merged corpora loaded in any file order
        select (and replay) the same representative."""
        return min(
            self.entries,
            key=lambda e: (
                0 if e.reduced_statements else 1,
                len(e.reduced_statements or e.statements),
                e.fingerprint,
            ),
        )

    @property
    def witness_statements(self) -> list[str]:
        rep = self.representative
        return list(rep.reduced_statements or rep.statements)

    @property
    def reduced_size(self) -> int:
        """Statement count of the best witness (paper Section 4.1
        reports reduced test-case sizes)."""
        return len(self.witness_statements)

    def sort_key(self) -> tuple:
        """Stable rendering order: ground-truth clusters first (by fault
        id), then plan signature, backend pair, kind."""
        return (
            0 if self.faults else 1,
            self.faults,
            self.plan_signature,
            self.backend_label,
            self.kind,
        )


def cluster_corpus(entries) -> list[Cluster]:
    """Group *entries* into clusters, sorted by :meth:`Cluster.sort_key`.

    Entries keep their input order inside each cluster, so ``first_seen``
    reflects corpus-file order (a fleet orders each round's new entries
    by shard, then by the shard's own report order).
    Entries sharing a fingerprint (the same bug loaded from overlapping
    corpus files) collapse into one: the first occurrence wins and later
    sightings accumulate, so "distinct bugs" stays an honest count.
    Input entries are never mutated.
    """
    by_fingerprint: dict[str, CorpusEntry] = {}
    for entry in entries:
        known = by_fingerprint.get(entry.fingerprint)
        if known is None:
            by_fingerprint[entry.fingerprint] = replace(entry)
        else:
            known.times_seen += entry.times_seen

    by_key: dict[ClusterKey, Cluster] = {}
    for entry in by_fingerprint.values():
        key = cluster_key(entry)
        cluster = by_key.get(key)
        if cluster is None:
            faults, plan, pair, kind = key
            cluster = by_key[key] = Cluster(
                faults=faults,
                plan_signature=plan,
                backend_pair=pair,
                kind=kind,
            )
        cluster.entries.append(entry)
    return sorted(by_key.values(), key=Cluster.sort_key)


def saturated_fault_ids(clusters, threshold: int) -> frozenset[str]:
    """Fault ids whose clusters have accumulated at least *threshold*
    sightings -- the triage signal a guided fleet steers away from
    (another witness of a 500-sighting cluster teaches nothing).

    A fault implicated by several clusters saturates on their combined
    sightings; a pure function of the cluster list, so the guided
    orchestrator can recompute it at every round barrier.
    """
    totals: dict[str, int] = {}
    for cluster in clusters:
        for fault_id in cluster.faults:
            totals[fault_id] = totals.get(fault_id, 0) + cluster.sightings
    return frozenset(f for f, n in totals.items() if n >= threshold)
