"""perfbench's contract with ``src/``.

perfbench lives outside the test tree and runs by name.  It wraps
``src/`` functions by module and attribute name
(``perfbench/benchspans.py::LAYERS``) and builds each workload's
FleetConfig and corpus itself (``perfbench/rep.py::_configs``).  These
tests read those files, so a rename or deletion in ``src/`` that would
break the benchmark fails tier-1 too.  Its provenance line stamps every
BENCH_perf.json record (``tools/perf_smoke.py``) with the tree it
measured.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys

import pytest

from repro.fleet import FleetConfig, make_replay_reducer, run_fleet

PERFBENCH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "perfbench")
)


def _load(name: str):
    """perfbench/<name>.py under a private module name: ``run`` and
    ``rep`` are too generic to enter ``sys.modules`` as they are."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # perfbench's modules import one another by bare name.
    sys.path.insert(0, PERFBENCH)
    try:
        yield {
            "benchspans": importlib.import_module("benchspans"),
            "rep": _load("rep"),
            "run": _load("run"),
        }
    finally:
        sys.path.remove(PERFBENCH)


def test_every_wrapped_name_resolves_to_a_callable(perfbench):
    benchspans = perfbench["benchspans"]
    broken = []
    for span, module, attribute, _ in benchspans.LAYERS:
        try:
            owner, leaf = benchspans._resolve(module, attribute)
            resolved = callable(getattr(owner, leaf))
        except (ImportError, AttributeError):
            resolved = False
        if not resolved:
            broken.append(f"{span}: {module}.{attribute}")
    assert broken == []


def test_every_workload_builds_its_config_and_corpus(perfbench):
    rep, run = perfbench["rep"], perfbench["run"]
    assert set(run.TESTS) == {"hunt", "diff", "fleet"}
    for workload, tests in run.TESTS.items():
        config, corpus = rep._configs(workload, 13, tests)
        assert isinstance(config, FleetConfig), workload
        assert config.n_tests == tests, workload
        if corpus is not None:
            # run_fleet accepts no other reducer.
            assert corpus.reduce_fn in (None, make_replay_reducer(config))
        # The call rep.main makes.
        inspect.signature(run_fleet).bind(config, corpus=corpus)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_provenance_marks_uncommitted_src_dirty(perfbench, tmp_path):
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
    provenance = perfbench["run"].provenance

    clean = provenance(str(tmp_path))
    assert clean["dirty"] is False
    assert clean["commit"] is not None

    source.write_text("x = 2\n")
    dirty = provenance(str(tmp_path))
    assert {"commit": dirty["commit"], "dirty": dirty["dirty"]} == {
        "commit": clean["commit"],
        "dirty": True,
    }
    assert dirty["source_sha256"] != clean["source_sha256"]
