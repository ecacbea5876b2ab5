"""Cross-backend differential testing (MiniDB profile vs. real SQLite).

The three layers:

* :mod:`repro.differential.compat` -- the dialect intersection of a
  backend pair plus per-pair statement translation/skip rules,
* :mod:`repro.differential.pair` -- :class:`DifferentialAdapter`, a tee
  adapter that executes every statement on both backends and raises
  :class:`~repro.errors.DifferentialMismatch` when canonical result
  sets diverge,
* :mod:`repro.differential.oracle` -- :class:`DifferentialOracle`,
  generating portable queries and reporting divergences as bugs.

``coddtest diff --backends minidb,sqlite3`` runs this stack sharded
over the fleet orchestrator.

Determinism guarantee: generation is seeded and both backends are
deterministic engines, so the same ``(seed, workers, budget)`` replays
the same differential campaign and reports the same divergences; a
1-worker fleet bit-matches the serial campaign.
"""

from __future__ import annotations

from repro.differential.compat import (
    BackendCaps,
    CompatPolicy,
    CompatSkip,
    capabilities,
)
from repro.differential.oracle import (
    DifferentialOracle,
    build_backend,
    build_pair_adapter,
)
from repro.differential.pair import DifferentialAdapter

__all__ = [
    "BackendCaps",
    "CompatPolicy",
    "CompatSkip",
    "DifferentialAdapter",
    "DifferentialOracle",
    "build_backend",
    "build_pair_adapter",
    "capabilities",
]
