"""Persistent, deduplicated bug corpus (JSONL).

Long campaigns re-find the same injected fault through hundreds of
superficially different test cases; what makes a fleet's output
analyzable is the set of *distinct* bugs (QPG, Ba & Rigger 2023, make
the same observation for query-plan corpora).  This module fingerprints
each :class:`~repro.oracles_base.TestReport`, keeps one corpus entry per
fingerprint, stores the first-seen witness with the ddmin-reduced one a
fleet worker made of it (the corpus never reduces), and persists
everything as one JSON object per line so corpora can be appended to,
merged, and resumed across fleet invocations.

Determinism guarantee: fingerprints are pure functions of the
normalized witness, so the same campaign always produces the same
entries, and a fleet orders each round's new entries by shard, then
by the shard's own report order, whatever the scheduling.
The on-disk format is append-only and era-tolerant -- entries written
before a field existed (e.g. PR-1 corpora without ``backend_pair``)
load with that field defaulted, never rejected.  A reduced witness can
arrive after its entry was appended; the entry is then appended again,
and readers keep a fingerprint's last line.
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
    ``attach()`` appends an entry again once its reduced witness
    arrives, so the file holds every witness that has; ``save()``
    rewrites the file with one line per entry and the updated
    ``times_seen`` counters.  Fingerprints are monotonic: nothing is
    ever removed.
    """

    def __init__(
        self, path: str | None = None, reduce_fn: Callable | None = None
    ) -> None:
        self.path = path
        #: The reducer the fleet's shards run, or None; never called here.
        self.reduce_fn = reduce_fn
        self.entries: dict[str, CorpusEntry] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(
        cls, path: str, reduce_fn: Callable | None = None
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
        reduced: list[str] | None = None,
    ) -> bool:
        """Record *report*; True iff its fingerprint is new.

        First-seen bugs are persisted with *reduced*, the reduced
        witness when it is already known (None: not reduced yet, not
        reduced, or irreducible; see :meth:`attach`); duplicates just
        bump ``times_seen``.  The other keyword arguments stamp fleet
        provenance (first-seen shard, fleet seed, dialect) onto
        first-seen entries for triage.
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
            reduced_statements=reduced,
        )
        self.entries[fp] = entry
        self._append(entry)
        return True

    def attach(
        self, fingerprint: str, shard: int, reduced: list[str] | None
    ) -> None:
        """Give the entry of *fingerprint* the witness *reduced* that
        ddmin made of shard *shard*'s report, if that report made the
        entry (its ``first_seen_shard``) and the entry has no witness
        yet.  The entry is appended to the backing file again, so the
        file's last line of the fingerprint carries the witness."""
        entry = self.entries.get(fingerprint)
        if (
            reduced is None
            or entry is None
            or entry.first_seen_shard != shard
            or entry.reduced_statements is not None
        ):
            return
        entry.reduced_statements = reduced
        self._append(entry)

    def _append(self, entry: CorpusEntry) -> None:
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")

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
    """Yield the entries of one JSONL corpus file, one per fingerprint,
    in the order of each fingerprint's first line, with its last line's
    fields: a fleet appends an entry again when its reduced witness
    arrives (:meth:`BugCorpus.attach`).

    Raises :class:`ValueError` naming the file and line on malformed
    JSON or an entry missing its required fields, so a truncated write
    surfaces as a diagnosable error rather than a stack trace.
    """
    entries: dict[str, CorpusEntry] = {}
    for entry in _iter_lines(path):
        entries[entry.fingerprint] = entry
    yield from entries.values()


def _iter_lines(path: str) -> Iterator[CorpusEntry]:
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
