"""Persistent, deduplicated bug corpus (JSONL).

Long campaigns re-find the same injected fault through hundreds of
superficially different test cases; what makes a fleet's output
analyzable is the set of *distinct* bugs (QPG, Ba & Rigger 2023, make
the same observation for query-plan corpora).  This module fingerprints
each :class:`~repro.oracles_base.TestReport`, keeps one corpus entry per
fingerprint, stores the first-seen witness reduced by ddmin (in a fleet
the shard that found the bug reduces it), and persists everything as
one JSON object per line so corpora can be appended to, merged, and
resumed across fleet invocations.

Determinism guarantee: fingerprints are pure functions of the
normalized witness, so the same campaign always produces the same
entry set; only sighting counters and provenance reflect scheduling.
The on-disk format is append-only and era-tolerant -- entries written
before a field existed (e.g. PR-1 corpora without ``backend_pair``)
load with that field defaulted, never rejected.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.oracles_base import TestReport

#: Random index names (``ix_t0_731``) would make otherwise-identical
#: test cases hash differently; sequence numbers are noise, the indexed
#: table is signal.
_INDEX_NAME = re.compile(r"\bix_(\w+?)_\d+\b")
_WS = re.compile(r"\s+")

#: Optional reduction hook: takes the first-seen report, returns the
#: reduced statement list or None when reduction is impossible (e.g. no
#: ground-truth faults to replay against).
ReduceFn = Callable[[TestReport], "list[str] | None"]

#: Default of :meth:`BugCorpus.add`'s *reduced*: no witness was reduced
#: elsewhere, so the corpus reduces first-seen bugs itself.
_REDUCE_HERE = object()


def normalize_statement(sql: str) -> str:
    """Canonical statement text for fingerprinting: collapsed
    whitespace, no trailing semicolon, case-insensitive, stable index
    names."""
    text = _WS.sub(" ", sql).strip().rstrip(";").lower()
    return _INDEX_NAME.sub(r"ix_\1_#", text)


def fingerprint_report(report: TestReport) -> str:
    """Stable identity of a bug-inducing test case.

    Built from the failure kind, the normalized statement sequence, and
    the ground-truth fault ids -- *not* the description, which embeds
    volatile row values, nor the oracle name, so the same witness found
    by two oracles deduplicates.  Differential reports additionally key
    on the backend pair: the same statements diverging between a
    *different* pair of engines is a different bug (the fingerprint of
    single-engine reports is unchanged).
    """
    payload_dict = {
        "kind": report.kind,
        "statements": [normalize_statement(s) for s in report.statements],
        "faults": sorted(report.fired_faults),
    }
    if report.backend_pair is not None:
        payload_dict["backends"] = list(report.backend_pair)
    payload = json.dumps(payload_dict, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CorpusEntry:
    """One distinct bug with its first-seen witness.

    Only the witness fields are guaranteed present: corpora are
    append-only files spanning fleet eras, so every field added after
    PR 1 (``backend_pair``, and the provenance quartet
    ``plan_fingerprint`` / ``dialect`` / ``first_seen_shard`` /
    ``first_seen_seed``) is optional and defaults to "unknown /
    single-engine" on load.
    """

    fingerprint: str
    oracle: str
    kind: str
    statements: list[str]
    description: str
    fired_faults: list[str] = field(default_factory=list)
    reduced_statements: list[str] | None = None
    times_seen: int = 1
    #: (primary, secondary) backend names for differential findings.
    backend_pair: list[str] | None = None
    #: Plan-fingerprint signature of the main query (triage clustering
    #: signal); differential entries carry "primary|secondary".
    plan_fingerprint: str | None = None
    #: MiniDB profile of the campaign that found the bug.
    dialect: str | None = None
    #: Fleet provenance of the first sighting: which shard of which
    #: ``--seed`` found it first (replay the fleet to re-find it).
    first_seen_shard: int | None = None
    first_seen_seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "oracle": self.oracle,
            "kind": self.kind,
            "statements": self.statements,
            "description": self.description,
            "fired_faults": self.fired_faults,
            "reduced_statements": self.reduced_statements,
            "times_seen": self.times_seen,
            "backend_pair": self.backend_pair,
            "plan_fingerprint": self.plan_fingerprint,
            "dialect": self.dialect,
            "first_seen_shard": self.first_seen_shard,
            "first_seen_seed": self.first_seen_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        pair = data.get("backend_pair")
        shard = data.get("first_seen_shard")
        seed = data.get("first_seen_seed")
        fingerprint = data.get("fingerprint")
        if fingerprint is None:
            # Pre-corpus report dumps carry no fingerprint; recompute it
            # from the witness so they cluster with modern entries.
            fingerprint = fingerprint_report(
                TestReport(
                    oracle=data.get("oracle", "unknown"),
                    kind=data["kind"],
                    statements=list(data["statements"]),
                    description=data.get("description", ""),
                    fired_faults=frozenset(data.get("fired_faults", ())),
                    backend_pair=tuple(pair) if pair else None,
                )
            )
        return cls(
            fingerprint=fingerprint,
            oracle=data.get("oracle", "unknown"),
            kind=data["kind"],
            statements=list(data["statements"]),
            description=data.get("description", ""),
            fired_faults=list(data.get("fired_faults", ())),
            reduced_statements=data.get("reduced_statements"),
            times_seen=int(data.get("times_seen", 1)),
            backend_pair=list(pair) if pair else None,
            plan_fingerprint=data.get("plan_fingerprint"),
            dialect=data.get("dialect"),
            first_seen_shard=None if shard is None else int(shard),
            first_seen_seed=None if seed is None else int(seed),
        )


class BugCorpus:
    """In-memory index of distinct bugs, optionally backed by a JSONL
    file.

    ``add()`` appends newly fingerprinted entries to the backing file
    immediately, so even an interrupted fleet leaves a loadable corpus;
    ``save()`` rewrites the file to also persist updated ``times_seen``
    counters.  Fingerprints are monotonic: nothing is ever removed.
    """

    def __init__(
        self, path: str | None = None, reduce_fn: ReduceFn | None = None
    ) -> None:
        self.path = path
        self.reduce_fn = reduce_fn
        self.entries: dict[str, CorpusEntry] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(
        cls, path: str, reduce_fn: ReduceFn | None = None
    ) -> "BugCorpus":
        """Load *path* if it exists (resume), else start empty."""
        corpus = cls(path=path, reduce_fn=reduce_fn)
        if os.path.exists(path):
            for entry in iter_corpus_file(path):
                corpus.entries[entry.fingerprint] = entry
        return corpus

    # -- mutation ----------------------------------------------------------------

    def add(
        self,
        report: TestReport,
        *,
        shard_index: int | None = None,
        seed: int | None = None,
        dialect: str | None = None,
        reduced: "list[str] | None | object" = _REDUCE_HERE,
    ) -> bool:
        """Record *report*; True iff its fingerprint is new.

        First-seen bugs are reduced (when a reducer is configured)
        before persisting; duplicates just bump ``times_seen``.  A
        witness already reduced elsewhere -- a fleet shard reduces on
        its own cache -- is passed as *reduced* (None: irreducible or
        not reduced) and stored instead of calling ``reduce_fn``.  The
        other keyword arguments stamp fleet provenance (first-seen
        shard, fleet seed, dialect) onto first-seen entries for triage.
        """
        fp = fingerprint_report(report)
        entry = self.entries.get(fp)
        if entry is not None:
            entry.times_seen += 1
            return False
        entry = CorpusEntry(
            fingerprint=fp,
            oracle=report.oracle,
            kind=report.kind,
            statements=list(report.statements),
            description=report.description,
            fired_faults=sorted(report.fired_faults),
            backend_pair=(
                list(report.backend_pair)
                if report.backend_pair is not None
                else None
            ),
            plan_fingerprint=report.plan_fingerprint,
            dialect=dialect,
            first_seen_shard=shard_index,
            first_seen_seed=seed,
        )
        if reduced is not _REDUCE_HERE:
            entry.reduced_statements = reduced
        elif self.reduce_fn is not None:
            entry.reduced_statements = self.reduce_fn(report)
        self.entries[fp] = entry
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        return True

    def merge(self, other: "BugCorpus | Iterable[CorpusEntry]") -> int:
        """Fold another corpus in; returns the number of new entries."""
        entries = other.entries.values() if isinstance(other, BugCorpus) else other
        new = 0
        for entry in entries:
            mine = self.entries.get(entry.fingerprint)
            if mine is None:
                self.entries[entry.fingerprint] = entry
                new += 1
            else:
                mine.times_seen += entry.times_seen
        return new

    def save(self, path: str | None = None, *, sort: bool = False) -> None:
        """Rewrite the backing file with current counters.

        ``sort=True`` orders entries by fingerprint instead of first-seen
        order, so merging the same inputs always writes a byte-identical
        file (``coddtest corpus merge`` relies on this).
        """
        target = path or self.path
        if target is None:
            raise ValueError("no path given and corpus has no backing file")
        entries = list(self.entries.values())
        if sort:
            entries.sort(key=lambda e: e.fingerprint)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, target)

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_seen(self) -> int:
        return sum(e.times_seen for e in self.entries.values())

    @property
    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.entries.values():
            out[entry.kind] = out.get(entry.kind, 0) + 1
        return out


def iter_corpus_file(path: str) -> Iterator[CorpusEntry]:
    """Yield the entries of one JSONL corpus file in file order.

    Raises :class:`ValueError` naming the file and line on malformed
    JSON or an entry missing its required fields, so a truncated write
    surfaces as a diagnosable error rather than a stack trace.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc.msg})"
                ) from None
            try:
                yield CorpusEntry.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: corpus entry missing or invalid "
                    f"field ({exc})"
                ) from None
