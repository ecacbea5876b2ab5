"""Registry contract: registration rules, discovery, entry points.

Every test restores the registry it mutates: the registry is process
state shared with every other test in the run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adapters.sqlite3_adapter import Sqlite3Adapter
from repro.backends import (
    BackendUnavailable,
    available_backend_names,
    backend_names,
    build_backend,
    discovery_errors,
    ensure_discovered,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends import registry as registry_module


@pytest.fixture
def scratch_backend():
    """Register a throwaway backend; always unregister it."""
    name = "scratch-backend"
    register_backend(
        name,
        lambda dialect, buggy: Sqlite3Adapter(),
        version=lambda dialect: "0.0-test",
        description="test-only",
    )
    try:
        yield name
    finally:
        unregister_backend(name)


def test_builtins_discovered():
    assert set(backend_names()) >= {"minidb", "minidb@alt", "sqlite3"}


def test_names_sorted_and_available_subset():
    names = backend_names()
    assert list(names) == sorted(names)
    assert set(available_backend_names()) <= set(names)


def test_duplicate_name_rejected(scratch_backend):
    with pytest.raises(ValueError, match="already registered"):
        register_backend(
            scratch_backend, lambda dialect, buggy: Sqlite3Adapter()
        )
    # replace=True is the explicit override.
    register_backend(
        scratch_backend,
        lambda dialect, buggy: Sqlite3Adapter(),
        replace=True,
    )


@pytest.mark.parametrize("bad", ["", "   ", "a,b"])
def test_invalid_names_rejected(bad):
    with pytest.raises(ValueError):
        register_backend(bad, lambda dialect, buggy: Sqlite3Adapter())


def test_unknown_backend_error_lists_registered():
    with pytest.raises(ValueError) as excinfo:
        build_backend("postgres")
    message = str(excinfo.value)
    assert "unknown backend 'postgres'" in message
    for name in backend_names():
        assert name in message


def test_unavailable_backend_raises_with_reason(monkeypatch):
    info = get_backend("minidb")
    monkeypatch.setitem(
        registry_module._REGISTRY,
        "minidb",
        dataclasses.replace(info, unavailable=lambda: "simulated outage"),
    )
    assert "minidb" not in available_backend_names()
    with pytest.raises(BackendUnavailable, match="simulated outage"):
        build_backend("minidb")


def test_build_routes_through_factory(scratch_backend):
    adapter = build_backend(scratch_backend)
    assert adapter.name == "sqlite3"


class _FakeEntryPoint:
    def __init__(self, name, loader):
        self.name = name
        self._loader = loader

    def load(self):
        return self._loader


def test_entry_point_backends_load(monkeypatch):
    def _register():
        register_backend(
            "ep-backend",
            lambda dialect, buggy: Sqlite3Adapter(),
            description="from entry point",
        )

    def _boom():
        raise RuntimeError("broken plugin")

    monkeypatch.setattr(
        registry_module,
        "_iter_entry_points",
        lambda: [
            _FakeEntryPoint("good", _register),
            _FakeEntryPoint("bad", _boom),
        ],
    )
    monkeypatch.setattr(registry_module, "_ENTRY_POINTS_LOADED", False)
    try:
        ensure_discovered()
        assert "ep-backend" in backend_names()
        # The broken plugin is isolated, not fatal, and diagnosable.
        assert any("bad" in err for err in discovery_errors())
    finally:
        unregister_backend("ep-backend")
        registry_module._DISCOVERY_ERRORS.clear()


def test_entry_point_loading_is_idempotent(monkeypatch):
    calls = []
    monkeypatch.setattr(
        registry_module, "_iter_entry_points", lambda: calls.append(1) or []
    )
    ensure_discovered()
    ensure_discovered()
    # Already loaded at import time in this process: never re-queried.
    assert calls == []
