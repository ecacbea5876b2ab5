"""Golden campaign signatures.

Each case runs one fixed-seed campaign and hashes its deterministic
witness -- ``CampaignStats.signature()``, plus the sorted corpus
fingerprints and arm schedules for the fleets, and for the reducing
fleets every entry's reduced witness and replay verdict -- against
``fixtures/signatures.json``.  Anything that changes what a campaign
observes (result rows, coverage tags, fired faults, plan fingerprints,
errors) changes a digest, so evaluator and executor rewrites that must
be invisible are held to the recorded behaviour.

Regenerate the fixture only for a change that is meant to alter
campaign outcomes::

    PYTHONPATH=src python tests/perf/test_signature_goldens.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro import CoddTestOracle, MiniDBAdapter, make_engine
from repro.baselines import DQEOracle, EETOracle, NoRECOracle, TLPOracle
from repro.fleet import BugCorpus, FleetConfig, make_replay_reducer, run_fleet
from repro.runner.campaign import run_campaign
from repro.triage.replay import replay_clusters

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "signatures.json"

ORACLES = {
    "coddtest": CoddTestOracle,
    "norec": NoRECOracle,
    "tlp": TLPOracle,
    "dqe": DQEOracle,
    "eet": EETOracle,
}


def _oracle_witness(name: str) -> dict:
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    return run_campaign(ORACLES[name](), adapter, n_tests=120, seed=11).signature()


def _diff_witness() -> dict:
    config = FleetConfig(
        oracle="differential",
        backend_pair=("minidb", "sqlite3"),
        buggy=True,
        workers=1,
        seed=3,
        n_tests=80,
    )
    return run_fleet(config).merged.signature()


def _guided_witness() -> dict:
    config = FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=2,
        seed=5,
        n_tests=200,
        guidance="plan-coverage",
    )
    corpus = BugCorpus()
    result = run_fleet(config, corpus=corpus)
    return {
        "merged": result.merged.signature(),
        "corpus": sorted(corpus.entries),
        "arms": result.arm_schedules,
    }


def _unguided_fleet_witness() -> dict:
    # Two workers, so the multiprocessing pool path is pinned.  No
    # max_reports cap: a cap that stops shards mid-run depends on
    # cross-process timing.
    config = FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=2,
        seed=5,
        n_tests=200,
    )
    corpus = BugCorpus()
    result = run_fleet(config, corpus=corpus)
    return {
        "merged": result.merged.signature(),
        "corpus": sorted(corpus.entries),
        "duplicates": result.duplicate_reports,
        "arms": result.arm_schedules,
    }


def _reducing_fleet_witness(workers: int, n_tests: int = 200) -> dict:
    # ddmin runs on every first-seen report, so the reduced witnesses
    # and their replay verdicts are pinned along with the campaign.
    # 200 tests on two workers is one round; 600 is four.
    config = FleetConfig(
        oracle="coddtest",
        buggy=True,
        workers=workers,
        seed=5,
        n_tests=n_tests,
        guidance="plan-coverage",
    )
    corpus = BugCorpus(reduce_fn=make_replay_reducer(config))
    result = run_fleet(config, corpus=corpus)
    verdicts = replay_clusters(result.clusters)
    return {
        "merged": result.merged.signature(),
        "reduced": {
            fp: entry.reduced_statements for fp, entry in corpus.entries.items()
        },
        "duplicates": result.duplicate_reports,
        "arms": result.arm_schedules,
        "verdicts": {
            cid: [v.status, v.witness] for cid, v in sorted(verdicts.items())
        },
    }


CASES = {
    **{
        f"{name}-buggy-sqlite": functools.partial(_oracle_witness, name)
        for name in ORACLES
    },
    "diff-minidb-sqlite3": _diff_witness,
    "guided-fleet-2w": _guided_witness,
    "unguided-fleet-2w": _unguided_fleet_witness,
    "reducing-fleet-2w": functools.partial(_reducing_fleet_witness, 2),
    "reducing-fleet-1w": functools.partial(_reducing_fleet_witness, 1),
    "reducing-fleet-2w-4rounds": functools.partial(
        _reducing_fleet_witness, 2, 600
    ),
}


def _digest(witness) -> str:
    return hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_signature_matches_golden(case):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _digest(CASES[case]()) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(f"usage: {sys.argv[0]} --regenerate")
    digests = {case: _digest(CASES[case]()) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
