"""The ``coddtest backends list|probe`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.adapters.sqlite3_adapter import Sqlite3Adapter
from repro.backends import register_backend, unregister_backend
from repro.cli import main as cli_main


@pytest.fixture
def offline_backend():
    """A registered backend whose driver is reported missing."""
    name = "offline-backend"
    register_backend(
        name,
        lambda dialect, buggy: Sqlite3Adapter(),
        version=lambda dialect: "0.0-test",
        unavailable=lambda: "driver not installed",
    )
    try:
        yield name
    finally:
        unregister_backend(name)


def test_backends_list(capsys):
    assert cli_main(["backends", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("minidb", "minidb@alt", "sqlite3"):
        assert name in out
    assert "available" in out


def test_backends_probe_writes_combined_json(tmp_path, capsys):
    out_path = tmp_path / "capvec.json"
    assert (
        cli_main(
            ["backends", "probe", "minidb", "sqlite3", "--out", str(out_path)]
        )
        == 0
    )
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"minidb[sqlite]", "sqlite3"}
    for vector in payload.values():
        assert vector["probe_set"]
        assert vector["probes"]
    stdout = capsys.readouterr().out
    assert "probes ok" in stdout


def test_backends_probe_unknown_name_exits_2(capsys):
    assert cli_main(["backends", "probe", "nosuch"]) == 2
    assert "unknown backend 'nosuch'" in capsys.readouterr().err


def test_backends_probe_unavailable_exits_2(offline_backend, capsys):
    assert cli_main(["backends", "probe", offline_backend]) == 2
    assert "unavailable" in capsys.readouterr().err


def test_diff_rejects_unregistered_backend(capsys):
    assert cli_main(["diff", "--backends", "minidb,postgres", "--tests", "1"]) == 2
    err = capsys.readouterr().err
    assert "registered backends" in err
