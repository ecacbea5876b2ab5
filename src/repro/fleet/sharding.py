"""Deterministic campaign sharding.

A fleet splits one logical campaign ``fleet(seed=S, workers=N)`` into N
independent shards, each a plain serial :class:`~repro.runner.campaign.
Campaign` with its own derived seed and slice of the test budget.  Two
properties are load-bearing:

* **Reproducibility** -- shard seeds are a pure function of
  ``(seed, shard_index, workers)``, so re-running the same fleet
  replays the same campaigns regardless of scheduling.
* **Serial equivalence** -- a 1-worker fleet derives exactly ``[seed]``
  and the full budget, so its single shard bit-matches today's serial
  ``run_campaign(seed=seed)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fleet.orchestrator import FleetConfig, ReplayReducer


def derive_shard_seeds(seed: int, workers: int) -> list[int]:
    """Per-shard seeds for a fleet of *workers* shards.

    With one worker the seed passes through unchanged (serial
    equivalence).  Otherwise each shard seed is a 63-bit digest of
    ``(seed, shard, workers)`` so that fleets of different widths
    explore disjoint random streams even for small consecutive seeds
    (``random.Random(1)`` and ``random.Random(2)`` are unrelated
    streams, but hashing also decorrelates shard 0 from the serial
    campaign a user may already have run with the same seed).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [seed]
    return [_mix(seed, shard, workers) for shard in range(workers)]


def _mix(seed: int, shard: int, workers: int) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{shard}:{workers}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def derive_round_seed(shard_seed: int, round_index: int) -> int:
    """Per-round seed for guided fleets.

    Guided campaigns run in rounds with a coverage-snapshot barrier in
    between; each round must explore a fresh random stream (replaying
    round 0's stream would regenerate the very states and queries whose
    plans are already covered).  Round 0 passes the shard seed through
    unchanged so a 1-round guided run derives exactly the same stream
    as an unguided shard.
    """
    if round_index == 0:
        return shard_seed
    digest = hashlib.blake2b(
        f"{shard_seed}:round:{round_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def split_tests(n_tests: int | None, workers: int) -> list[int | None]:
    """Fair split of an n-tests budget: quotas sum to *n_tests* and
    differ by at most one.  A wall-clock-only budget (None) passes
    through: every shard runs the full time window."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_tests is None:
        return [None] * workers
    base, extra = divmod(n_tests, workers)
    return [base + (1 if shard < extra else 0) for shard in range(workers)]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of one round: the fleet's whole :class:`FleetConfig`
    plus what this shard adds in this round.

    Specs cross the process boundary, so they hold only picklable
    values: the config names the oracle and adapter, and each worker
    builds its own engine, adapter, and oracle from it.
    """

    config: "FleetConfig"
    shard_index: int
    seed: int
    n_tests: int | None
    seconds: float | None
    #: The fleet-wide report cap still left after earlier rounds.
    max_reports: int
    #: Which guided round this spec belongs to (0-based); rounds are
    #: the deterministic barriers at which coverage snapshots merge.
    round_index: int = 0
    #: Serialized GuidedPolicy state carried across round barriers
    #: (None on the first round: the worker seeds a fresh policy).
    policy_state: dict | None = None
    #: Fleet-global CoverageMap snapshot (merged at the last barrier);
    #: its fingerprints stop counting as novel in this round.
    coverage_snapshot: dict | None = None
    #: Fault ids the fleet considers saturated (triage signal): arms
    #: whose tests only re-fire these are de-prioritized.
    saturated_faults: tuple[str, ...] = ()
    #: Stable owner id for this shard's coverage counters (includes the
    #: fleet seed, so re-running the same fleet merges idempotently).
    coverage_source: str = ""
    #: The fleet's replay reducer, or None when the fleet does not
    #: reduce.  The shard makes a ddmin job of each report new to it
    #: unless the fingerprint is known (see ``_run_shard``).
    reducer: "ReplayReducer | None" = None
    #: Fingerprints the corpus held at the start of the round; the
    #: shard does not reduce them again.
    known_fingerprints: frozenset[str] = frozenset()
