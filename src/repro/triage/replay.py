"""Replay verification of cluster representatives.

A corpus outlives the engines that produced it: the fault catalog
evolves, the generator's dialect intersection tightens, a real backend
gets upgraded.  Replay separates clusters whose witness still fails on
a freshly built engine (*reproduces*) from those that no longer do
(*stale*), the same check the fleet's ddmin reducer uses for its
"still fails" predicate -- and the reason the paper could attribute
every Table 1 bug to a live root cause.

Three verdicts:

* ``reproduces`` -- the witness fails the same way on a fresh engine:
  the recorded faults all fire again (logic bugs), the same failure
  class is raised (internal error / crash / hang), or the backends
  diverge again (differential findings);
* ``stale``     -- the witness runs clean (or is no longer a valid
  program for the current engines);
* ``unverifiable`` -- there is nothing to check against: a
  single-engine logic finding with no ground-truth faults needs its
  original oracle, and an unknown backend cannot be built.

Determinism guarantee: replay drives only deterministic engines with
the recorded statements, so replaying the same corpus twice yields the
same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.backends import backend_names
from repro.dialects import FAULTS_BY_ID, make_engine
from repro.differential import build_pair_adapter
from repro.errors import (
    DifferentialMismatch,
    EngineCrash,
    EngineHang,
    InternalError,
    SqlError,
)
from repro.triage.cluster import Cluster

REPRODUCES = "reproduces"
STALE = "stale"
UNVERIFIABLE = "unverifiable"

#: Failure-class kinds and the exception each maps to.
_EXCEPTIONAL_KINDS = {
    "internal error": InternalError,
    "crash": EngineCrash,
    "hang": EngineHang,
}


@dataclass(frozen=True)
class ReplayVerdict:
    """Outcome of replaying one cluster representative."""

    status: str  # one of REPRODUCES / STALE / UNVERIFIABLE
    detail: str
    #: Which witness reproduced: "reduced", "full", or "-" when none.
    witness: str = "-"


def parse_backend_name(name: str) -> tuple[str, "str | None"]:
    """Split a recorded backend name into ``(short name, dialect)``.

    Corpus entries record adapter display names -- dialect-sensitive
    backends append their profile (``minidb[sqlite]``,
    ``minidb@alt[tidb]``) while real DBMSs record the bare registry
    name (``sqlite3``) -- and the pair builder wants the short registry
    name plus a dialect.
    """
    if name.endswith("]") and "[" in name:
        short, _, dialect = name[:-1].partition("[")
        return short, dialect or None
    return name, None


def infer_dialect(cluster: Cluster) -> str:
    """The MiniDB profile to replay on: the representative witness's
    recorded dialect if present, else the dialect of another entry
    (scanned in fingerprint order, so merged corpora infer the same
    profile regardless of file order), else the primary backend's
    recorded profile, else the profile of the first ground-truth
    fault, else sqlite."""
    representative = cluster.representative
    if representative.dialect:
        return representative.dialect
    for entry in sorted(cluster.entries, key=lambda e: e.fingerprint):
        if entry.dialect:
            return entry.dialect
    if cluster.backend_pair:
        _, dialect = parse_backend_name(cluster.backend_pair[0])
        if dialect:
            return dialect
    for fid in cluster.faults:
        fault = FAULTS_BY_ID.get(fid)
        if fault is not None:
            return fault.profile
    return "sqlite"


def replay_representative(
    cluster: Cluster,
    dialect: "str | None" = None,
    cache=None,
) -> ReplayVerdict:
    """Replay *cluster*'s best witness on a freshly built engine (pair).

    Tries the reduced statement list first, then falls back to the full
    recorded program (a too-aggressive past reduction must not condemn
    a live bug as stale).

    *cache* (a :class:`repro.perf.EvalCache`) is attached to every
    freshly built engine, so the state-building DDL prefix the reduced
    and full witnesses share is parsed once instead of once per
    verification -- and once per *corpus* when :func:`replay_clusters`
    shares one cache across clusters.  Verdicts are identical with or
    without the cache; None replays uncached (the CLI's
    ``--no-cache``).
    """
    rep = cluster.representative
    target = set(cluster.faults)
    pair: "tuple[str, str] | None" = None
    if cluster.backend_pair is not None:
        short = tuple(
            parse_backend_name(b)[0] for b in cluster.backend_pair
        )
        known = backend_names()
        if any(b not in known for b in short):
            return ReplayVerdict(
                UNVERIFIABLE,
                f"unknown backend in pair {cluster.backend_pair}",
            )
        pair = short
    if pair is None and not target and cluster.kind == "logic":
        return ReplayVerdict(
            UNVERIFIABLE,
            "single-engine logic finding without ground-truth faults "
            "needs its original oracle",
        )

    dialect = dialect or infer_dialect(cluster)
    candidates: list[tuple[str, list[str]]] = []
    if rep.reduced_statements:
        candidates.append(("reduced", list(rep.reduced_statements)))
    candidates.append(("full", list(rep.statements)))

    last_detail = "witness ran clean"
    for witness, statements in candidates:
        reproduced, detail = _replay_once(
            statements, cluster.kind, target, pair, dialect, cache
        )
        if reproduced:
            return ReplayVerdict(REPRODUCES, detail, witness=witness)
        last_detail = detail
    return ReplayVerdict(STALE, last_detail)


def replay_clusters(
    clusters: Iterable[Cluster],
    dialect: "str | None" = None,
    use_cache: bool = True,
) -> dict[str, ReplayVerdict]:
    """Verdict per :attr:`Cluster.cluster_id` for every cluster."""
    cache = None
    if use_cache:
        from repro.perf import EvalCache

        cache = EvalCache()
    return {
        c.cluster_id: replay_representative(c, dialect=dialect, cache=cache)
        for c in clusters
    }


def _replay_once(
    statements: list[str],
    kind: str,
    target: set,
    pair: "tuple[str, str] | None",
    dialect: str,
    cache=None,
) -> tuple[bool, str]:
    """Run *statements* on a fresh engine; does the bug fire again?"""
    buggy = bool(target)
    if pair is not None:
        adapter = build_pair_adapter(pair, dialect=dialect, buggy=buggy)
    else:
        adapter = MiniDBAdapter(
            make_engine(dialect, with_catalog_faults=buggy)
        )
    if cache is not None:
        # The namespace pins the full engine configuration: one shared
        # cache must never replay a result recorded under a different
        # fault catalog, dialect, or backend pair.
        namespace = (
            f"replay/{'|'.join(pair) if pair else 'minidb'}"
            f"/{dialect}/buggy={buggy}"
        )
        adapter.attach_eval_cache(cache, namespace)

    expected_exc = _EXCEPTIONAL_KINDS.get(kind)
    fired: set = set()
    for sql in statements:
        try:
            adapter.execute(sql)
        except DifferentialMismatch:
            if kind == "logic":
                return True, "backends diverge again on replay"
            return False, f"unexpected divergence replaying a {kind} bug"
        except (InternalError, EngineCrash, EngineHang) as exc:
            fired |= adapter.fired_fault_ids()
            if expected_exc is not None and isinstance(exc, expected_exc):
                if not target or target <= fired:
                    return True, f"{kind} raised again on replay"
                return False, (
                    f"{kind} raised but by faults {sorted(fired)}, "
                    f"not {sorted(target)}"
                )
            return False, f"engine failure of a different class: {exc}"
        except SqlError as exc:
            # Includes StateDesyncError and differential skips: the
            # witness is no longer a valid program for these engines.
            return False, f"witness no longer executes: {exc}"
        fired |= adapter.fired_fault_ids()

    if expected_exc is not None:
        return False, f"no {kind} raised on replay"
    if pair is not None:
        return False, "backends agree on replay"
    if target and target <= fired:
        return True, "all recorded faults fired again on replay"
    return False, (
        f"faults {sorted(target - fired)} no longer fire on replay"
        if target
        else "witness ran clean"
    )
