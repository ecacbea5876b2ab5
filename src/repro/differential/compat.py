"""Dialect-compatibility layer for cross-backend differential testing.

Two backends only form a usable differential pair on the *intersection*
of their dialects.  This module computes that intersection from the
adapters' capability flags (the same ``supports_any_all`` /
``strict_typing`` knobs the dialect profiles configure, paper Section
3.3) and provides per-pair statement translation: a statement is either
passed through, rewritten for one backend (``VERSION()`` becomes its
deterministic literal on engines that lack the function), or skipped
with a :class:`CompatSkip` explaining why.

Skips are classified by the caller via
:func:`repro.adapters.sql_text.statement_kind`: a skipped ``CREATE
INDEX`` only perturbs plans and may run one-sided, while a skipped
data statement must abort the whole state.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass

from repro.adapters.base import EngineAdapter
from repro.minidb.functions import ENGINE_VERSION

#: Join kinds the differential generator may emit, before capability
#: filtering.
ALL_JOIN_KINDS = ("INNER", "LEFT", "CROSS", "FULL")

#: SQLite grew FULL [OUTER] JOIN in 3.39 (2022-06).
_SQLITE_FULL_JOIN_MIN = (3, 39)

#: Quantified comparisons: ``expr op ANY/ALL/SOME (SELECT ...)``.
_QUANTIFIED = re.compile(
    r"(?:=|!=|<>|<=?|>=?)\s*(?:ANY|ALL|SOME)\s*\(", re.IGNORECASE
)
_VERSION_CALL = re.compile(r"\bVERSION\s*\(\s*\)", re.IGNORECASE)
_TYPEOF_CALL = re.compile(r"\bTYPEOF\s*\(", re.IGNORECASE)
_FULL_JOIN = re.compile(r"\bFULL\s+(?:OUTER\s+)?JOIN\b", re.IGNORECASE)


class CompatSkip(Exception):
    """A statement is not expressible on one backend of the pair."""

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"{backend}: {reason}")
        self.backend = backend
        self.reason = reason


@dataclass(frozen=True)
class BackendCaps:
    """Capability snapshot of one backend, as the policy consumes it."""

    name: str
    supports_any_all: bool
    strict_typing: bool
    supports_full_join: bool
    supports_version_fn: bool
    supports_typeof: bool
    #: True for adapters backed by a simulated engine with ground-truth
    #: fault attribution (MiniDB); real DBMSs are False.
    simulated: bool


def capabilities(adapter: EngineAdapter) -> BackendCaps:
    """Derive :class:`BackendCaps` from an adapter instance.

    MiniDB-backed adapters implement the full generated surface; the
    stdlib ``sqlite3`` backend lacks quantified comparisons and
    ``VERSION()``, renders ``TYPEOF()`` with different type names, and
    supports FULL JOIN only from 3.39.

    Campaigns never use this hand-written table: their pair policy is
    probe-derived (:func:`repro.backends.pair_policy`).  It stays as
    the reference the derived policy is checked against.
    """
    engine = getattr(adapter, "engine", None)
    if engine is not None:  # MiniDB profile
        return BackendCaps(
            name=adapter.name,
            supports_any_all=adapter.supports_any_all,
            strict_typing=adapter.strict_typing,
            supports_full_join=True,
            supports_version_fn=True,
            supports_typeof=True,
            simulated=True,
        )
    return BackendCaps(
        name=adapter.name,
        supports_any_all=adapter.supports_any_all,
        strict_typing=adapter.strict_typing,
        supports_full_join=sqlite3.sqlite_version_info >= _SQLITE_FULL_JOIN_MIN,
        supports_version_fn=False,
        supports_typeof=False,
        simulated=False,
    )


@dataclass(frozen=True)
class CompatPolicy:
    """The dialect intersection of a differential pair.

    ``supports_any_all`` and ``join_kinds`` feed the portable query
    generators (constructs one backend cannot parse are never emitted);
    :meth:`translate` is the per-statement escape hatch for anything
    that still reaches a backend it does not fit.
    """

    primary: BackendCaps
    secondary: BackendCaps
    #: The literal ``VERSION()`` rewrites to on backends lacking the
    #: function.  Defaults to MiniDB's deterministic version string;
    #: probe-derived policies (:func:`repro.backends.derive_policy`)
    #: substitute the value the supporting backend actually returned.
    version_literal: str = ENGINE_VERSION

    @classmethod
    def for_pair(
        cls, primary: EngineAdapter, secondary: EngineAdapter
    ) -> "CompatPolicy":
        """The hand-written intersection (see :func:`capabilities`)."""
        return cls(capabilities(primary), capabilities(secondary))

    @property
    def supports_any_all(self) -> bool:
        return (
            self.primary.supports_any_all and self.secondary.supports_any_all
        )

    @property
    def join_kinds(self) -> tuple[str, ...]:
        kinds = list(ALL_JOIN_KINDS)
        if not (
            self.primary.supports_full_join
            and self.secondary.supports_full_join
        ):
            kinds.remove("FULL")
        return tuple(kinds)

    @property
    def strict_typing(self) -> bool:
        """Generation-side typing discipline for the pair.

        Always strict for cross-engine pairs: even two *relaxed* engines
        disagree on mixed-type coercion (SQLite orders numbers before
        text where MiniDB's relaxed mode coerces text to a numeric
        prefix), so portable queries must compare like with like.
        """
        return True

    def backend_names(self) -> tuple[str, str]:
        return (self.primary.name, self.secondary.name)

    def translate(self, sql: str, caps: BackendCaps) -> str:
        """Return *sql* adjusted for the backend described by *caps*.

        Raises :class:`CompatSkip` when no faithful rewrite exists.
        """
        if not caps.supports_version_fn and _VERSION_CALL.search(sql):
            # VERSION() is deterministic in MiniDB, so substituting the
            # literal preserves semantics exactly.
            sql = _VERSION_CALL.sub(f"'{self.version_literal}'", sql)
        if not caps.supports_typeof and _TYPEOF_CALL.search(sql):
            raise CompatSkip(caps.name, "TYPEOF() type names differ")
        if not caps.supports_any_all and _QUANTIFIED.search(sql):
            raise CompatSkip(caps.name, "quantified comparison (ANY/ALL/SOME)")
        if not caps.supports_full_join and _FULL_JOIN.search(sql):
            raise CompatSkip(caps.name, "FULL JOIN unsupported")
        return sql
