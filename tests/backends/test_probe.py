"""Capability-probe determinism and the in-process vector memo."""

from __future__ import annotations

import json

import pytest

from repro.adapters.sqlite3_adapter import Sqlite3Adapter
from repro.backends import (
    clear_probe_memo,
    probe_backend,
    register_backend,
    unregister_backend,
)


class _CountedBuild:
    """Build counter behind a registered backend."""

    def __init__(self):
        self.builds = 0

    def factory(self, dialect, buggy):
        self.builds += 1
        return Sqlite3Adapter()


@pytest.fixture
def counted():
    state = _CountedBuild()
    register_backend(
        "probe-test",
        state.factory,
        version=lambda dialect: "1.0",
        description="probe memo test double",
    )
    clear_probe_memo()
    try:
        yield state
    finally:
        unregister_backend("probe-test")
        clear_probe_memo()


def test_probe_vector_is_byte_deterministic():
    clear_probe_memo()
    first = json.dumps(probe_backend("minidb").to_payload(), sort_keys=True)
    clear_probe_memo()
    second = json.dumps(probe_backend("minidb").to_payload(), sort_keys=True)
    assert first == second


def test_probe_memoizes_in_process(counted):
    vector = probe_backend("probe-test")
    assert counted.builds == 1
    assert probe_backend("probe-test") is vector
    assert counted.builds == 1
