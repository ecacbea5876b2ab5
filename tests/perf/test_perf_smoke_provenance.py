"""``tools/perf_smoke.py`` stamps BENCH_perf.json records with the tree
it measured: the commit, and whether ``src/`` or ``tools/`` differ from
it."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil
import subprocess

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "tools" / "perf_smoke.py"


def _load_perf_smoke():
    spec = importlib.util.spec_from_file_location("perf_smoke", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_provenance_marks_uncommitted_src_dirty(tmp_path):
    def git(*args: str) -> None:
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    source = tmp_path / "src" / "mod.py"
    source.parent.mkdir()
    source.write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "init")
    provenance = _load_perf_smoke().tree_provenance

    clean = provenance(str(tmp_path))
    assert clean["dirty"] is False
    assert clean["commit"] != "unknown"

    source.write_text("x = 2\n")
    assert provenance(str(tmp_path)) == {"commit": clean["commit"], "dirty": True}
