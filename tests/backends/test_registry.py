"""Registry contract: registration rules and name resolution.

Every test restores the registry it mutates: the registry is process
state shared with every other test in the run.
"""

from __future__ import annotations

import pytest

from repro.adapters.sqlite3_adapter import Sqlite3Adapter
from repro.backends import (
    backend_names,
    build_backend,
    register_backend,
    unregister_backend,
)


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


def test_build_routes_through_factory(scratch_backend):
    adapter = build_backend(scratch_backend)
    assert adapter.name == "sqlite3"
