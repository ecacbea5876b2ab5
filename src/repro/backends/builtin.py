"""The in-repo backend factories: two MiniDB builds and real SQLite.

:mod:`repro.backends.registry` registers them under these names:

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

#: Version suffix distinguishing the alt build's capability vector:
#: same engine code, different compiled-in configuration.
ALT_VERSION_SUFFIX = "+alt.1"


def minidb_factory(dialect: str = "sqlite", buggy: bool = False):
    from repro.adapters.minidb_adapter import MiniDBAdapter
    from repro.dialects import make_engine

    return MiniDBAdapter(make_engine(dialect, with_catalog_faults=buggy))


def minidb_alt_factory(dialect: str = "sqlite", buggy: bool = False):
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


def sqlite3_factory(dialect: str = "sqlite", buggy: bool = False):
    from repro.adapters.sqlite3_adapter import Sqlite3Adapter

    return Sqlite3Adapter()
