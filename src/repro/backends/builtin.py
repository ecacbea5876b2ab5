"""The in-repo backends: two MiniDB builds and real SQLite.

* ``minidb`` -- the simulated engine at the selected dialect profile,
  the paper's engine under test; ``buggy`` seeds the full fault catalog.
* ``minidb@alt`` -- a second MiniDB build at a deliberately different
  dialect/fault configuration: quantified comparisons are compiled out
  (the probe-derived pair policy must discover this, not be told), and
  ``buggy`` seeds only the catalog's still-open ``VERIFIED`` faults --
  the "development build" side of a regression-diff pair such as
  ``--backends minidb@alt,minidb``.  Faults off, it is semantically
  identical to ``minidb`` on the generated surface, so a clean
  ``(minidb, minidb@alt)`` campaign must report zero divergences.
* ``sqlite3`` -- the real stdlib SQLite (always installed).
"""

from __future__ import annotations

import dataclasses
import sqlite3

from repro.backends.registry import register_backend

#: Version suffix distinguishing the alt build in capability-vector
#: cache keys: same engine code, different compiled-in configuration.
ALT_VERSION_SUFFIX = "+alt.1"


def _engine_version() -> str:
    from repro.minidb.functions import ENGINE_VERSION

    return ENGINE_VERSION


def _minidb_factory(dialect: str = "sqlite", buggy: bool = False):
    from repro.adapters.minidb_adapter import MiniDBAdapter
    from repro.dialects import make_engine

    return MiniDBAdapter(make_engine(dialect, with_catalog_faults=buggy))


def _minidb_alt_factory(dialect: str = "sqlite", buggy: bool = False):
    from repro.adapters.minidb_adapter import MiniDBAdapter
    from repro.dialects import get_dialect
    from repro.minidb.engine import Engine

    spec = get_dialect(dialect)
    profile = dataclasses.replace(
        spec.engine_profile,
        supports_any_all=False,
        display_name=f"{spec.engine_profile.display_name} (alt build)",
    )
    faults = []
    if buggy:
        from repro.dialects.catalog import FAULTS_BY_PROFILE
        from repro.minidb.faults import BugStatus

        faults = [
            f
            for f in FAULTS_BY_PROFILE.get(dialect, [])
            if f.status is BugStatus.VERIFIED
        ]
    adapter = MiniDBAdapter(Engine(profile=profile, faults=faults))
    # The qualified name is campaign/corpus provenance: triage must be
    # able to tell the alt build from the stock one.
    adapter.name = f"minidb@alt[{dialect}]"
    return adapter


def register_builtins() -> None:
    """Idempotent registration of the in-repo backends (called once by
    :func:`repro.backends.registry.ensure_discovered`)."""
    register_backend(
        "minidb",
        _minidb_factory,
        version=lambda dialect: _engine_version(),
        description="simulated engine at the selected dialect profile "
        "(ground-truth fault injection)",
        simulated=True,
        dialect_sensitive=True,
        replace=True,
    )
    register_backend(
        "minidb@alt",
        _minidb_alt_factory,
        version=lambda dialect: _engine_version() + ALT_VERSION_SUFFIX,
        description="second MiniDB build: quantified comparisons "
        "compiled out, --buggy seeds only open (VERIFIED) faults "
        "(regression-diff pairs)",
        simulated=True,
        dialect_sensitive=True,
        replace=True,
    )
    register_backend(
        "sqlite3",
        lambda dialect="sqlite", buggy=False: _sqlite3_factory(),
        version=lambda dialect: sqlite3.sqlite_version,
        description="real stdlib SQLite (in-memory)",
        replace=True,
    )


def _sqlite3_factory():
    from repro.adapters.sqlite3_adapter import Sqlite3Adapter

    return Sqlite3Adapter()
