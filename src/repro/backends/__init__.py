"""DBMS backends: a registry plus automatic capability probing.

Two layers:

* :mod:`repro.backends.registry` -- short-name -> adapter-factory
  registry of the in-repo backends (:mod:`repro.backends.builtin`),
  which register on import; :func:`build_backend` is the one place
  backend names resolve (the CLI, the fleet, and triage replay all
  route here).
* :mod:`repro.backends.probe` -- the canned feature-probe program set,
  the :class:`CapabilityVector` of each backend build (probed once per
  ``(backend, dialect)`` per process), and the probe-*derived*
  :class:`~repro.differential.compat.CompatPolicy` (the hand-written
  ``(minidb, sqlite3)`` intersection is reproduced exactly; enforced by
  test and the ``backend-smoke`` CI gate).

``coddtest backends list|probe`` is the CLI surface.
"""

from __future__ import annotations

from repro.backends.probe import (
    PROBE_PROGRAMS,
    PROBE_SET_DIGEST,
    CapabilityVector,
    ProbeProgram,
    caps_from_vector,
    clear_probe_memo,
    derive_policy,
    pair_policy,
    probe_backend,
    run_probes,
)
from repro.backends.registry import (
    BackendInfo,
    all_backends,
    backend_names,
    build_backend,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "BackendInfo",
    "CapabilityVector",
    "PROBE_PROGRAMS",
    "PROBE_SET_DIGEST",
    "ProbeProgram",
    "all_backends",
    "backend_names",
    "build_backend",
    "caps_from_vector",
    "clear_probe_memo",
    "derive_policy",
    "get_backend",
    "pair_policy",
    "probe_backend",
    "register_backend",
    "run_probes",
    "unregister_backend",
]
