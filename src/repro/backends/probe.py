"""Automatic capability probing: derive the dialect intersection.

Instead of hand-maintaining a :class:`~repro.differential.compat.
BackendCaps` entry per backend, each backend runs a canned, seeded
feature-probe program set once -- quantified comparisons, FULL JOIN,
``VERSION()``, ``TYPEOF()`` type-name rendering, typed casts, division
semantics, NULL ordering, collation, scalar-subquery cardinality --
and the recorded outcomes form a serializable :class:`CapabilityVector`.
Pair policies are then *derived*: per-backend flags come straight from
probe success/failure, and cross-backend rules (skip ``TYPEOF()``,
rewrite ``VERSION()`` to a literal) come from comparing the recorded
values of probes both backends execute successfully.

Determinism guarantee: every probe program is a fixed constant query
over a fixed two-row state and all engines involved are deterministic,
so probing the same backend build twice yields an equal vector, and
``coddtest backends probe --out`` writes it byte-identically.  Each
``(backend, dialect)`` is probed once per process; the vector records
the backend's version string and the probe-set digest as its
provenance.

The derived ``(minidb, sqlite3)`` policy reproduces the hand-written
intersection exactly -- enforced by
``tests/backends/test_derived_policy.py`` and the ``backend-smoke`` CI
gate -- so the 0-false-positive guarantee of the differential oracle
carries over unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.backends.registry import get_backend
from repro.differential.compat import BackendCaps, CompatPolicy
from repro.errors import ReproError
from repro.minidb.functions import ENGINE_VERSION


@dataclass(frozen=True)
class ProbeProgram:
    """One feature probe: a fixed setup prefix plus one query.

    ``ordered=True`` records result rows in arrival order (the probe is
    *about* ordering); otherwise rows are sorted so the recorded value
    is insensitive to harmless row-order differences between engines.
    """

    probe_id: str
    query: str
    setup: tuple[str, ...] = ()
    ordered: bool = False


_TWO_ROWS = (
    "CREATE TABLE cap_t (c0 INTEGER)",
    "INSERT INTO cap_t VALUES (1), (2)",
)

#: The canned probe set.  Append-only by convention: editing a program
#: changes :data:`PROBE_SET_DIGEST`, which every vector records.
PROBE_PROGRAMS: tuple[ProbeProgram, ...] = (
    ProbeProgram(
        "quantified_any",
        "SELECT c0 FROM cap_t WHERE c0 = ANY (SELECT c0 FROM cap_t)",
        _TWO_ROWS,
    ),
    ProbeProgram(
        "quantified_all",
        "SELECT c0 FROM cap_t WHERE c0 >= ALL (SELECT c0 FROM cap_t)",
        _TWO_ROWS,
    ),
    ProbeProgram(
        "full_outer_join",
        "SELECT cap_t.c0, cap_u.c0 FROM cap_t "
        "FULL OUTER JOIN cap_u ON cap_t.c0 = cap_u.c0",
        _TWO_ROWS
        + (
            "CREATE TABLE cap_u (c0 INTEGER)",
            "INSERT INTO cap_u VALUES (2), (3)",
        ),
    ),
    ProbeProgram("version_fn", "SELECT VERSION()"),
    ProbeProgram(
        "typeof_scalar",
        "SELECT TYPEOF(1), TYPEOF(1.5), TYPEOF('x'), TYPEOF(NULL)",
    ),
    ProbeProgram("typeof_comparison", "SELECT TYPEOF(1 = 1)"),
    ProbeProgram("cast_text_prefix", "SELECT CAST('12abc' AS INTEGER)"),
    ProbeProgram("integer_division", "SELECT 7 / 2"),
    ProbeProgram("division_by_zero", "SELECT 1 / 0"),
    ProbeProgram(
        "null_ordering",
        "SELECT c0 FROM cap_n ORDER BY c0",
        (
            "CREATE TABLE cap_n (c0 INTEGER)",
            "INSERT INTO cap_n VALUES (1), (NULL)",
        ),
        ordered=True,
    ),
    ProbeProgram("collation_case", "SELECT 'a' < 'B'"),
    ProbeProgram(
        "scalar_subquery_multi_row",
        "SELECT (SELECT c0 FROM cap_t)",
        _TWO_ROWS,
    ),
    ProbeProgram("string_concat", "SELECT 'a' || 'b'"),
)


def _probe_set_digest() -> str:
    payload = "\n".join(
        f"{p.probe_id}|{p.ordered}|{'; '.join(p.setup)}|{p.query}"
        for p in PROBE_PROGRAMS
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


#: Digest of the program set; part of every vector's provenance.
PROBE_SET_DIGEST = _probe_set_digest()


def _encode_cell(value):
    """JSON-safe, engine-neutral cell encoding.

    Booleans collapse to integers: a backend returning ``True`` where
    another returns ``1`` agrees semantically (the comparison the
    differential oracle's ``canonical()`` also makes).
    """
    if isinstance(value, bool):
        return int(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


def _encode_rows(rows, ordered: bool) -> list:
    encoded = [[_encode_cell(v) for v in row] for row in rows]
    if not ordered:
        encoded.sort(key=lambda row: json.dumps(row))
    return encoded


@dataclass(frozen=True)
class CapabilityVector:
    """The recorded probe outcomes of one backend build."""

    #: Registry name (``minidb@alt``) and qualified adapter display name
    #: (``minidb@alt[sqlite]`` -- what campaign provenance records).
    backend: str
    qualified: str
    version: str
    simulated: bool
    probe_set: str
    #: ``probe_id -> {"ok": bool, "rows": encoded rows | None}``.
    probes: "dict[str, dict]"

    def ok(self, probe_id: str) -> bool:
        return bool(self.probes.get(probe_id, {}).get("ok"))

    def rows(self, probe_id: str) -> "list | None":
        outcome = self.probes.get(probe_id)
        return None if outcome is None else outcome.get("rows")

    def scalar(self, probe_id: str):
        """First cell of a single-row probe result, None on error."""
        rows = self.rows(probe_id)
        if not rows or not rows[0]:
            return None
        return rows[0][0]

    def typeof_signature(self) -> str:
        """The backend's TYPEOF rendering, comparable across backends."""
        return json.dumps(
            [self.rows("typeof_scalar"), self.rows("typeof_comparison")]
        )

    def to_payload(self) -> dict:
        return {
            "schema": 1,
            "backend": self.backend,
            "qualified": self.qualified,
            "version": self.version,
            "simulated": self.simulated,
            "probe_set": self.probe_set,
            "probes": self.probes,
        }


def run_probes(adapter) -> "dict[str, dict]":
    """Execute the probe set on *adapter* (reset between programs)."""
    outcomes: dict[str, dict] = {}
    for program in PROBE_PROGRAMS:
        adapter.reset()
        try:
            for sql in program.setup:
                adapter.execute(sql)
            result = adapter.execute(program.query)
        except ReproError:
            outcomes[program.probe_id] = {"ok": False, "rows": None}
        else:
            outcomes[program.probe_id] = {
                "ok": True,
                "rows": _encode_rows(result.rows, program.ordered),
            }
    adapter.reset()
    return outcomes


#: In-process memo: (backend, dialect) -> CapabilityVector.  Probing
#: is cheap but happens on every pair build.
_MEMO: dict[tuple[str, str], CapabilityVector] = {}


def clear_probe_memo() -> None:
    """Drop the in-process memo (test isolation)."""
    _MEMO.clear()


def probe_backend(name: str, dialect: str = "sqlite") -> CapabilityVector:
    """The :class:`CapabilityVector` of backend *name* at *dialect*,
    probed on a faults-off build once per ``(name, dialect)`` per
    process."""
    key = (name, dialect)
    vector = _MEMO.get(key)
    if vector is None:
        info = get_backend(name)
        adapter = info.build(dialect=dialect, buggy=False)
        vector = CapabilityVector(
            backend=name,
            qualified=adapter.name,
            version=info.version(dialect),
            simulated=info.simulated,
            probe_set=PROBE_SET_DIGEST,
            probes=run_probes(adapter),
        )
        _MEMO[key] = vector
    return vector


# ---------------------------------------------------------------------------
# Deriving BackendCaps / CompatPolicy from vectors
# ---------------------------------------------------------------------------


def caps_from_vector(vector: CapabilityVector) -> BackendCaps:
    """Per-backend capability flags, read off the probe outcomes."""
    return BackendCaps(
        name=vector.qualified,
        supports_any_all=(
            vector.ok("quantified_any") and vector.ok("quantified_all")
        ),
        strict_typing=not vector.ok("cast_text_prefix"),
        supports_full_join=vector.ok("full_outer_join"),
        supports_version_fn=vector.ok("version_fn"),
        supports_typeof=(
            vector.ok("typeof_scalar") and vector.ok("typeof_comparison")
        ),
        simulated=vector.simulated,
    )


def derive_policy(
    primary: CapabilityVector, secondary: CapabilityVector
) -> CompatPolicy:
    """A :class:`CompatPolicy` derived from two capability vectors.

    Per-backend flags come from :func:`caps_from_vector`; the pair
    rules compare recorded values of probes both sides ran successfully
    and demote the *secondary* (reference) side on disagreement, so the
    existing skip/rewrite machinery handles the divergence:

    * different ``TYPEOF`` renderings -> the reference loses
      ``supports_typeof`` (TYPEOF statements are skipped for it);
    * different ``VERSION()`` values -> the reference loses
      ``supports_version_fn`` and the policy's ``version_literal``
      becomes the primary's probed value, so the rewrite substitutes
      the value the primary actually returns.
    """
    p = caps_from_vector(primary)
    s = caps_from_vector(secondary)
    if (
        p.supports_typeof
        and s.supports_typeof
        and primary.typeof_signature() != secondary.typeof_signature()
    ):
        s = dataclasses.replace(s, supports_typeof=False)

    version_literal = ENGINE_VERSION
    primary_version = primary.scalar("version_fn")
    secondary_version = secondary.scalar("version_fn")
    if p.supports_version_fn and isinstance(primary_version, str):
        version_literal = primary_version
    elif s.supports_version_fn and isinstance(secondary_version, str):
        version_literal = secondary_version
    if (
        p.supports_version_fn
        and s.supports_version_fn
        and primary_version != secondary_version
    ):
        s = dataclasses.replace(s, supports_version_fn=False)
    return CompatPolicy(primary=p, secondary=s, version_literal=version_literal)


def pair_policy(
    primary_name: str, secondary_name: str, dialect: str = "sqlite"
) -> CompatPolicy:
    """The probe-derived policy for a registered backend pair."""
    return derive_policy(
        probe_backend(primary_name, dialect=dialect),
        probe_backend(secondary_name, dialect=dialect),
    )
