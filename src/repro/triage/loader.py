"""Tolerant corpus loading and merging.

Corpora are append-only JSONL files written by different eras of the
fleet: PR-1 entries predate the differential ``backend_pair`` field,
and both PR-1 and PR-2 entries predate the provenance fields
(``plan_fingerprint``, ``dialect``, ``first_seen_shard``,
``first_seen_seed``).  The loader accepts them all -- a missing
``backend_pair`` means a single-engine finding, missing provenance
renders as unknown -- so one report can span a whole corpus lineage.

Within one file a fingerprint's last line wins: a fleet appends an
entry again when its reduced witness arrives, so the later line is the
entry's newer state (two corpora concatenated into one file therefore
keep only the later one's count; merge them as separate files).

Determinism guarantee: loading preserves argument order and, within a
file, the order of each fingerprint's first line; merging dedupes by
fingerprint and writes entries sorted by fingerprint, so merging the
same inputs always produces a byte-identical output file.
"""

from __future__ import annotations

from typing import Iterable

from repro.fleet.corpus import BugCorpus, CorpusEntry, iter_corpus_file


def load_corpus(paths: "str | Iterable[str]") -> list[CorpusEntry]:
    """Concatenate the entries of one or many corpus files.

    Order is file-argument order, then file order -- the fleet appends
    in discovery order, so the first occurrence of a fingerprint is its
    first sighting.  Each file gives one entry per fingerprint, with
    the fields of its last line there; duplicate fingerprints across
    files are *kept* (use :func:`merge_corpora` or clustering to
    collapse them).
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
    path order) wins and later files' sightings accumulate into its
    ``times_seen`` (within a file a fingerprint's last line counts,
    see :func:`~repro.fleet.corpus.iter_corpus_file`).  When *out_path*
    is given the merged corpus is
    written there with entries sorted by fingerprint (deterministic
    regardless of input order).
    """
    merged = BugCorpus(path=out_path)
    for path in paths:
        merged.merge(iter_corpus_file(path))
    if out_path is not None:
        merged.save(out_path, sort=True)
    return merged
