"""The ``coddtest backends list|probe`` CLI surface."""

from __future__ import annotations

import json

from repro.backends import get_backend
from repro.cli import main as cli_main


def test_backends_list(capsys):
    assert cli_main(["backends", "list"]) == 0
    rows = {
        line.split()[0]: line
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    for name in ("minidb", "minidb@alt", "sqlite3"):
        assert get_backend(name).version("sqlite") in rows[name]


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


def test_diff_rejects_unregistered_backend(capsys):
    assert cli_main(["diff", "--backends", "minidb,postgres", "--tests", "1"]) == 2
    err = capsys.readouterr().err
    assert "registered backends" in err
