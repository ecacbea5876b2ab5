"""Fleet: sharded parallel campaign orchestration with a persistent bug
corpus.

The paper's evaluation runs thousands of test cases per oracle per
dialect; a single-process loop is the binding constraint on bugs found
per hour ("Scaling Automated Database System Testing", Zhong & Rigger
2025).  This package shards one logical campaign across a
``multiprocessing`` worker pool:

* :mod:`repro.fleet.orchestrator` -- ``FleetConfig``, the one record
  of a campaign's settings; the worker pool, forked once per fleet,
  the one collector both shard paths stream progress and reports into,
  stats merging, fleet-wide early stop, and the ddmin jobs of new bugs,
  which go to whichever worker has finished its own tests,
* :mod:`repro.fleet.sharding` -- deterministic per-shard seeds and
  budget splits (a 1-worker fleet bit-matches the serial campaign);
  each ``ShardSpec`` carries the fleet's ``FleetConfig`` plus its
  shard's seed, budget and round state,
* :mod:`repro.fleet.corpus` -- a JSONL-backed deduplicated bug corpus
  with checkpoint/resume,
* :mod:`repro.fleet.progress` -- periodic throughput/dedup reporting,
* :mod:`repro.fleet.telemetry` -- the optional observability surfaces
  (structured trace, live status endpoint) bundled per fleet run; the
  config's ``trace_path`` and ``status_port`` switch them on.  All of
  them show one record, :class:`repro.obs.status.ProgressSnapshot`.
"""

from repro.fleet.corpus import (
    BugCorpus,
    CorpusEntry,
    fingerprint_report,
    normalize_statement,
)
from repro.fleet.orchestrator import (
    FleetConfig,
    FleetResult,
    build_shards,
    make_replay_reducer,
    run_fleet,
)
from repro.fleet.progress import ProgressPrinter
from repro.fleet.sharding import (
    ShardSpec,
    derive_round_seed,
    derive_shard_seeds,
    split_tests,
)
from repro.fleet.telemetry import FleetTelemetry
from repro.obs.status import ProgressSnapshot

__all__ = [
    "BugCorpus",
    "CorpusEntry",
    "fingerprint_report",
    "normalize_statement",
    "FleetConfig",
    "FleetResult",
    "build_shards",
    "make_replay_reducer",
    "run_fleet",
    "ProgressPrinter",
    "ProgressSnapshot",
    "FleetTelemetry",
    "ShardSpec",
    "derive_round_seed",
    "derive_shard_seeds",
    "split_tests",
]
