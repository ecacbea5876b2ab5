"""The pluggable DBMS backend registry.

Adding a backend to the differential fleet is one adapter class plus a
:func:`register_backend` call (SQLancer++'s scaling direction, PAPERS
"Scaling Automated Database System Testing"): the registry maps short
names (``minidb``, ``sqlite3``, ``minidb@alt``) to factories
that build :class:`~repro.adapters.base.EngineAdapter` instances, and
everything downstream -- ``build_backend``/``build_pair_adapter``, the
fleet's :class:`~repro.fleet.orchestrator.FleetConfig` validation, the
CLI's ``--backends`` parsing, triage replay -- resolves names here
instead of against a frozen tuple.

Discovery is two-phase and lazy: the in-repo built-ins register on
first use, then any installed distribution advertising the
``coddtest.backends`` entry-point group is loaded (an entry point may
resolve to a :class:`BackendInfo`, to a callable returning one or an
iterable of them, or to a callable that calls :func:`register_backend`
itself).  A broken entry point is recorded in :func:`discovery_errors`
and never takes the registry down.

Optional backends (a third-party DBMS driver that may not be
installed) register *unconditionally* with an ``unavailable`` probe:
they show up in ``coddtest backends list`` with the reason they cannot
build, and :func:`available_backend_names` excludes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.adapters.base import EngineAdapter

#: Entry-point group third-party distributions use to contribute
#: backends: ``[project.entry-points."coddtest.backends"]``.
ENTRY_POINT_GROUP = "coddtest.backends"


class BackendUnavailable(ValueError):
    """A registered optional backend cannot be built here (for example
    its driver package is not installed)."""


@dataclass(frozen=True)
class BackendInfo:
    """One registered backend: identity, construction, and probe keys.

    ``factory(dialect=..., buggy=...)`` builds a fresh adapter;
    ``version(dialect)`` returns the version string that keys the
    on-disk capability-vector cache (a backend whose behaviour can
    change must change its version string); ``unavailable`` (optional)
    returns a human-readable reason the backend cannot build right now,
    or None when it can.
    """

    name: str
    factory: Callable[..., EngineAdapter]
    version: Callable[[str], str]
    description: str = ""
    #: True for adapters backed by a simulated engine with ground-truth
    #: fault attribution (MiniDB builds); real DBMSs are False.
    simulated: bool = False
    #: Whether ``factory`` varies with the ``dialect`` argument (MiniDB
    #: builds do; real DBMSs ignore it).
    dialect_sensitive: bool = False
    unavailable: "Callable[[], str | None] | None" = field(
        default=None, compare=False
    )

    def why_unavailable(self) -> "str | None":
        return None if self.unavailable is None else self.unavailable()

    def available(self) -> bool:
        return self.why_unavailable() is None

    def build(self, dialect: str = "sqlite", buggy: bool = False) -> EngineAdapter:
        reason = self.why_unavailable()
        if reason is not None:
            raise BackendUnavailable(
                f"backend {self.name!r} is unavailable: {reason}"
            )
        return self.factory(dialect=dialect, buggy=buggy)


_REGISTRY: dict[str, BackendInfo] = {}
_BUILTINS_LOADED = False
_ENTRY_POINTS_LOADED = False
_DISCOVERY_ERRORS: list[str] = []


def register_backend(
    name: str,
    factory: Callable[..., EngineAdapter],
    *,
    version: "Callable[[str], str] | None" = None,
    description: str = "",
    simulated: bool = False,
    dialect_sensitive: bool = False,
    unavailable: "Callable[[], str | None] | None" = None,
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
        dialect_sensitive=dialect_sensitive,
        unavailable=unavailable,
    )
    _REGISTRY[name] = info
    return info


def unregister_backend(name: str) -> None:
    """Remove *name* from the registry (primarily for test isolation)."""
    _REGISTRY.pop(name, None)


def ensure_discovered() -> None:
    """Idempotently load built-ins and ``coddtest.backends`` entry points."""
    global _BUILTINS_LOADED, _ENTRY_POINTS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from repro.backends.builtin import register_builtins

        register_builtins()
    if not _ENTRY_POINTS_LOADED:
        _ENTRY_POINTS_LOADED = True
        _load_entry_points(_iter_entry_points())


def _iter_entry_points():
    """The installed ``coddtest.backends`` entry points (monkeypatch
    point for the discovery tests)."""
    from importlib.metadata import entry_points

    try:
        return list(entry_points(group=ENTRY_POINT_GROUP))
    except Exception:  # pragma: no cover - metadata backend quirks
        return []


def _load_entry_points(eps: Iterable) -> None:
    """Register every backend the entry points contribute.

    One broken distribution must not take down discovery for the rest:
    failures (import errors, duplicate names, bad return types) are
    recorded per entry point and the loop continues.
    """
    for ep in eps:
        try:
            obj = ep.load()
            contributed = obj() if callable(obj) and not isinstance(obj, BackendInfo) else obj
            if contributed is None:
                continue  # the callable registered itself
            infos = (
                [contributed]
                if isinstance(contributed, BackendInfo)
                else list(contributed)
            )
            for info in infos:
                if not isinstance(info, BackendInfo):
                    raise TypeError(
                        f"expected BackendInfo, got {type(info).__name__}"
                    )
                if info.name in _REGISTRY:
                    raise ValueError(
                        f"backend {info.name!r} is already registered"
                    )
                _REGISTRY[info.name] = info
        except Exception as exc:
            _DISCOVERY_ERRORS.append(f"{ep.name}: {exc}")


def discovery_errors() -> tuple[str, ...]:
    """Entry points that failed to load, as ``"<name>: <error>"`` lines."""
    return tuple(_DISCOVERY_ERRORS)


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted (includes unavailable ones)."""
    ensure_discovered()
    return tuple(sorted(_REGISTRY))


def available_backend_names() -> tuple[str, ...]:
    """Registered backends that can actually be built here, sorted."""
    ensure_discovered()
    return tuple(
        name for name in sorted(_REGISTRY) if _REGISTRY[name].available()
    )


def all_backends() -> tuple[BackendInfo, ...]:
    """Every registered :class:`BackendInfo`, in name order."""
    ensure_discovered()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_backend(name: str) -> BackendInfo:
    """Look up *name*, raising ``ValueError`` listing the registered
    names (derived, never hand-maintained) when unknown."""
    ensure_discovered()
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
