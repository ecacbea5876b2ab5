"""Tolerant corpus loading and merging.

Corpora are append-only JSONL files written by different eras of the
fleet: PR-1 entries predate the differential ``backend_pair`` field,
and both PR-1 and PR-2 entries predate the provenance fields
(``plan_fingerprint``, ``dialect``, ``first_seen_shard``,
``first_seen_seed``).  The loader accepts them all -- a missing
``backend_pair`` means a single-engine finding, missing provenance
renders as unknown -- so one report can span a whole corpus lineage.

Determinism guarantee: loading preserves file order and argument order;
merging dedupes by fingerprint and writes entries sorted by
fingerprint, so merging the same inputs always produces a byte-identical
output file.
"""

from __future__ import annotations

from typing import Iterable

from repro.fleet.corpus import BugCorpus, CorpusEntry, iter_corpus_file


def load_corpus(paths: "str | Iterable[str]") -> list[CorpusEntry]:
    """Concatenate the entries of one or many corpus files.

    Order is file-argument order, then file order -- the fleet appends
    in discovery order, so the first occurrence of a fingerprint is its
    first sighting.  Duplicate fingerprints across files are *kept*
    (use :func:`merge_corpora` or clustering to collapse them).
    """
    if isinstance(paths, str):
        paths = [paths]
    entries: list[CorpusEntry] = []
    for path in paths:
        entries.extend(iter_corpus_file(path))
    return entries


def merge_corpora(
    paths: Iterable[str], out_path: "str | None" = None
) -> BugCorpus:
    """Fold many corpus files into one deduplicated corpus.

    Entries are deduplicated by fingerprint; the first-seen entry (in
    path order) wins and later sightings accumulate into its
    ``times_seen``.  When *out_path* is given the merged corpus is
    written there with entries sorted by fingerprint (deterministic
    regardless of input order).
    """
    merged = BugCorpus(path=out_path)
    for path in paths:
        merged.merge(iter_corpus_file(path))
    if out_path is not None:
        merged.save(out_path, sort=True)
    return merged
