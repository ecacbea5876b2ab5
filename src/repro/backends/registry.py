"""The DBMS backend registry.

Adding a backend to the differential fleet is one adapter class plus a
:func:`register_backend` call (SQLancer++'s scaling direction, PAPERS
"Scaling Automated Database System Testing"): the registry maps short
names (``minidb``, ``sqlite3``, ``minidb@alt``) to factories
that build :class:`~repro.adapters.base.EngineAdapter` instances, and
everything downstream -- ``build_backend``/``build_pair_adapter``, the
fleet's :class:`~repro.fleet.orchestrator.FleetConfig` validation, the
CLI's ``--backends`` parsing, triage replay -- resolves names here
instead of against a frozen tuple.

The three in-repo backends (:mod:`repro.backends.builtin`) register
when this module is imported.  Their factories import their adapters
lazily, so registering them costs nothing.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Callable

from repro.adapters.base import EngineAdapter
from repro.backends import builtin
from repro.minidb.functions import ENGINE_VERSION


@dataclass(frozen=True)
class BackendInfo:
    """One registered backend: identity, construction and version.

    ``factory(dialect=..., buggy=...)`` builds a fresh adapter;
    ``version(dialect)`` returns the build's version string, which its
    capability vector records and ``coddtest backends list`` shows.
    """

    name: str
    factory: Callable[..., EngineAdapter]
    version: Callable[[str], str]
    description: str = ""
    #: True for adapters backed by a simulated engine with ground-truth
    #: fault attribution (MiniDB builds); real DBMSs are False.
    simulated: bool = False

    def build(self, dialect: str = "sqlite", buggy: bool = False) -> EngineAdapter:
        return self.factory(dialect=dialect, buggy=buggy)


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    factory: Callable[..., EngineAdapter],
    *,
    version: "Callable[[str], str] | None" = None,
    description: str = "",
    simulated: bool = False,
    replace: bool = False,
) -> BackendInfo:
    """Register *factory* under *name*; returns the :class:`BackendInfo`.

    Duplicate names are rejected (``replace=True`` overrides -- test
    fixtures and deliberate shadowing only): two backends silently
    sharing a name would make campaign provenance ambiguous.
    """
    if not name or any(c.isspace() or c == "," for c in name):
        raise ValueError(
            f"invalid backend name {name!r}: must be non-empty and free "
            "of whitespace and commas (the CLI parses comma pairs)"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True "
            "to shadow it deliberately"
        )
    info = BackendInfo(
        name=name,
        factory=factory,
        version=version if version is not None else (lambda dialect: "0"),
        description=description,
        simulated=simulated,
    )
    _REGISTRY[name] = info
    return info


def unregister_backend(name: str) -> None:
    """Remove *name* from the registry (primarily for test isolation)."""
    _REGISTRY.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_backends() -> tuple[BackendInfo, ...]:
    """Every registered :class:`BackendInfo`, in name order."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_backend(name: str) -> BackendInfo:
    """Look up *name*, raising ``ValueError`` listing the registered
    names (derived, never hand-maintained) when unknown."""
    info = _REGISTRY.get(name)
    if info is None:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return info


def build_backend(
    name: str, dialect: str = "sqlite", buggy: bool = False
) -> EngineAdapter:
    """Construct one backend by registry name.

    ``buggy`` seeds the build's fault catalog on simulated backends;
    real DBMS backends have no injectable faults and ignore it.
    """
    return get_backend(name).build(dialect=dialect, buggy=buggy)


register_backend(
    "minidb",
    builtin.minidb_factory,
    version=lambda dialect: ENGINE_VERSION,
    description="simulated engine at the selected dialect profile "
    "(ground-truth fault injection)",
    simulated=True,
)
register_backend(
    "minidb@alt",
    builtin.minidb_alt_factory,
    version=lambda dialect: ENGINE_VERSION + builtin.ALT_VERSION_SUFFIX,
    description="second MiniDB build: quantified comparisons "
    "compiled out, --buggy seeds only open (VERIFIED) faults "
    "(regression-diff pairs)",
    simulated=True,
)
register_backend(
    "sqlite3",
    builtin.sqlite3_factory,
    version=lambda dialect: sqlite3.sqlite_version,
    description="real stdlib SQLite (in-memory)",
)
