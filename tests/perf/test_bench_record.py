"""``tools/perf_smoke.py`` appends one BENCH_perf.json record from the
stdout of perfbench's runs: perfbench's provenance, and each workload's
result line.  These tests feed it canned stdout; no workload runs."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "tools" / "perf_smoke.py"

PROVENANCE = {
    "commit": "0123456789abcdef0123456789abcdef01234567",
    "dirty": True,
    "nproc": 2,
    "platform": "Linux-6.1-x86_64-with-glibc2.36",
    "python": "3.11.7",
    "source_sha256": "ab" * 32,
    "sqlite_version": "3.40.1",
}

#: Records of the two earlier layouts, as the fig2 sweep wrote them.
EARLIER = [
    {
        "all_signatures_identical": True,
        "commit": "b507b99",
        "min_speedup_at_depth_ge_5": 1.7,
        "schema_version": 2,
        "sweep": [{"max_depth": 3, "speedup": 1.812}],
        "timestamp": 1786078704,
    },
    {
        "all_signatures_identical": True,
        "commit": "292e646",
        "dirty": True,
        "min_speedup_at_depth_ge_5": 2.119,
        "schema_version": 3,
        "sweep": [{"max_depth": 5, "tests_per_second_cache_on": 1009.37}],
        "timestamp": 1792226450,
    },
]


@pytest.fixture(scope="module")
def perf_smoke():
    spec = importlib.util.spec_from_file_location("perf_smoke", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(workload: str, correct: bool = True, provenance=PROVENANCE) -> str:
    result = {
        "correct": correct,
        "attempted": 4000,
        "failed": 0,
        "metrics": {
            "tests_per_s": {"value": 702.5, "unit": "tests/s"},
            "peak_rss_mb": {"value": 26.4, "unit": "MiB"},
        },
    }
    return "\n".join(
        [
            f"perfbench provenance {json.dumps(provenance, sort_keys=True)}",
            f"perfbench {workload} seed=17 tests/rep=1000 trace=0",
            "  tests_per_s                               702.5 tests/s",
            f"  correct: {correct}",
            json.dumps(result),
        ]
    ) + "\n"


@pytest.fixture
def bench(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(
        json.dumps(
            {"schema_version": 4, "history": EARLIER}, indent=2, sort_keys=True
        )
        + "\n"
    )
    return path


def test_one_record_is_appended_and_earlier_ones_keep_their_bytes(
    perf_smoke, bench
):
    before = bench.read_text()
    runs = {w: (0, _stdout(w)) for w in ("hunt", "diff", "fleet")}
    assert perf_smoke.append_record(str(bench), runs, 17, 30)

    after = bench.read_text()
    history = json.loads(after)["history"]
    assert len(history) == len(EARLIER) + 1
    assert history[:-1] == EARLIER
    # The earlier records' text, up to the close of the last one.
    kept = before[: before.rindex("}\n  ]") + 1]
    assert after.startswith(kept)

    record = history[-1]
    assert {k: record[k] for k in PROVENANCE} == PROVENANCE
    assert record["schema_version"] == 4
    assert isinstance(record["timestamp"], int)
    assert (record["seed"], record["seconds"]) == (17, 30)
    assert set(record["workloads"]) == {"hunt", "diff", "fleet"}
    for result in record["workloads"].values():
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["metrics"]["tests_per_s"]["value"] == 702.5


def test_a_missing_file_starts_the_history(perf_smoke, tmp_path):
    path = tmp_path / "new.json"
    assert perf_smoke.append_record(str(path), {"hunt": (0, _stdout("hunt"))}, 1, 30)
    assert len(json.loads(path.read_text())["history"]) == 1


@pytest.mark.parametrize(
    "failing",
    [
        (0, _stdout("diff", correct=False)),
        (1, _stdout("diff")),
        (0, "perfbench diff seed=17 tests/rep=1500 trace=0\n"),
        (0, _stdout("diff", provenance=dict(PROVENANCE, source_sha256="cd" * 32))),
    ],
    ids=["incorrect", "exit-code", "no-result", "another-tree"],
)
def test_a_failed_run_appends_nothing(perf_smoke, bench, failing):
    before = bench.read_text()
    runs = {"hunt": (0, _stdout("hunt")), "diff": failing}
    assert not perf_smoke.append_record(str(bench), runs, 17, 30)
    assert bench.read_text() == before
