"""CODDTest reproduction: Constant Optimization Driven Database System
Testing (Zhang & Rigger, SIGMOD 2025).

Public API tour
---------------

>>> from repro import CoddTestOracle, MiniDBAdapter, make_engine, run_campaign
>>> adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
>>> stats = run_campaign(CoddTestOracle(), adapter, n_tests=200, seed=1)

See README.md for the corpus lifecycle and docs/architecture.md for
the package-layer map and the seed-to-triage-table data flow.
"""

from repro.adapters import MiniDBAdapter, Sqlite3Adapter
from repro.backends import (
    BackendInfo,
    CapabilityVector,
    available_backend_names,
    backend_names,
    build_backend,
    pair_policy,
    probe_backend,
    register_backend,
)
from repro.baselines import DQEOracle, EETOracle, NoRECOracle, TLPOracle
from repro.core import CoddTestOracle
from repro.dialects import ALL_FAULTS, LOGIC_FAULTS, get_dialect, make_engine
from repro.differential import (
    CompatPolicy,
    DifferentialAdapter,
    DifferentialOracle,
    build_pair_adapter,
)
from repro.fleet import (
    BugCorpus,
    FleetConfig,
    FleetResult,
    fingerprint_report,
    make_replay_reducer,
    run_fleet,
)
from repro.guidance import Arm, CoverageMap, GuidedPolicy
from repro.minidb import Engine, EngineProfile
from repro.oracles_base import Oracle, TestOutcome, TestReport
from repro.perf import CacheStats, EvalCache
from repro.runner import (
    Campaign,
    CampaignStats,
    detection_matrix,
    detects_fault,
    run_campaign,
)
from repro.triage import (
    Cluster,
    cluster_corpus,
    load_corpus,
    merge_corpora,
    render_triage,
    replay_clusters,
)

__version__ = "1.0.0"

__all__ = [
    "CoddTestOracle",
    "NoRECOracle",
    "TLPOracle",
    "DQEOracle",
    "EETOracle",
    "DifferentialOracle",
    "DifferentialAdapter",
    "CompatPolicy",
    "build_pair_adapter",
    "BackendInfo",
    "CapabilityVector",
    "available_backend_names",
    "backend_names",
    "build_backend",
    "pair_policy",
    "probe_backend",
    "register_backend",
    "Oracle",
    "TestOutcome",
    "TestReport",
    "Engine",
    "EngineProfile",
    "MiniDBAdapter",
    "Sqlite3Adapter",
    "make_engine",
    "get_dialect",
    "ALL_FAULTS",
    "LOGIC_FAULTS",
    "Campaign",
    "CampaignStats",
    "run_campaign",
    "detects_fault",
    "detection_matrix",
    "BugCorpus",
    "FleetConfig",
    "FleetResult",
    "fingerprint_report",
    "make_replay_reducer",
    "run_fleet",
    "Arm",
    "CoverageMap",
    "GuidedPolicy",
    "EvalCache",
    "CacheStats",
    "Cluster",
    "cluster_corpus",
    "load_corpus",
    "merge_corpora",
    "render_triage",
    "replay_clusters",
    "__version__",
]
