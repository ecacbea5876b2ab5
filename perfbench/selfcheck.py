"""Tests of the benchmark itself: metric names, order statistics, span
arithmetic, and the shape of its output on every workload.

Run with ``python -m pytest perfbench/selfcheck.py``; the name keeps it
out of the repository's own test collection (see ``README.md``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchspans  # noqa: E402
import benchstats  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_unique():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.TESTS)
    assert set(run.PREDICTIONS) == set(run.TESTS)


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert benchstats.supported_percentile(n) == expected


def test_tail_percentile_reports_value_and_sample_count():
    values = list(range(1, 1001))
    assert benchstats.tail_percentile(values) == (99.0, 990.0, 1000)
    assert benchstats.tail_percentile([1.0] * 5) == (None, None, 5)
    assert benchstats.percentile([3, 1, 2], 50) == 2.0


def _span(name, start, end, parent=-1, test=-1):
    return (name, start, end, parent, test)


def test_self_time_of_nested_spans():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 5.0, 9.0, parent=0),
        _span("b", 6.0, 7.0, parent=2),
    ]
    seconds, calls = benchspans.self_times(spans)
    assert seconds == pytest.approx({"a": 3.0, "b": 4.0, "c": 3.0})
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_recursive_spans_outermost_and_nested():
    tracer = benchspans.Tracer()

    def countdown(n):
        return 0 if n == 0 else 1 + timed(n - 1)

    timed = tracer.wrap(countdown, "outer", outermost=True)
    assert timed(5) == 5
    assert [s[0] for s in tracer.spans] == ["outer"]

    nested = benchspans.Tracer()
    timed = nested.wrap(countdown, "rec")
    assert timed(3) == 3
    spans = nested.spans
    assert [s[3] for s in spans] == [-1, 0, 1, 2]
    seconds, calls = benchspans.self_times(spans)
    assert calls == {"rec": 4}
    outer = spans[0][2] - spans[0][1]
    assert seconds["rec"] == pytest.approx(outer)


def test_spans_of_one_test_share_its_index():
    tracer = benchspans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    test = tracer.wrap(lambda: inner(), "test", marks_test=True)
    test()
    test()
    inner()
    assert [(s[0], s[4]) for s in tracer.spans] == [
        ("test", 0), ("inner", 0), ("test", 1), ("inner", 1), ("inner", -1)
    ]


def test_union_and_barrier_wait():
    assert benchspans.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert benchspans.union_length([(0, 2), (5, 8)], 1, 6) == 2
    # Two rounds of two shards: round 1 waits 1s, round 2 waits 2s.
    shards = [(0, 4), (0, 3), (5, 7), (5, 9)]
    assert benchspans.barrier_wait(shards) == 3


def test_layer_metrics_cover_every_span_metric():
    payload = {
        "pid": 1,
        "spans": [
            _span("fleet.shard", 0.0, 1.0),
            _span("oracles.test", 0.1, 0.2, parent=0, test=0),
        ],
        "cache": {"parse_hits": 3, "parse_misses": 1},
    }
    out = benchspans.layer_metrics([payload], (0.0, 2.0), (0.0, 1.5))
    assert list(out) == benchspans.span_metric_names()
    assert out["other_share"] == pytest.approx(0.5)
    assert out["fleet.idle_s"] == pytest.approx(0.5)
    assert out["perf.parse_hit_rate"] == 0.75
    assert out["perf.parse_lookups"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    assert time.monotonic() - started < 180


def _rep(scale, fault_times):
    return {"wall": 2.0, "scale": scale, "tests": 100, "plans": 50,
            "setup_s": 0.4, "peak_rss_kib": 2048, "fault_times": fault_times}


def test_faults_per_min_counts_first_reports_inside_the_window(monkeypatch):
    monkeypatch.setitem(run.FAULT_WINDOW, "hunt", 1.0)
    reps = [
        _rep(1.0, {"a": 0.2, "b": 0.9, "c": 1.5}),
        # Scaled by 2: 0.4 s counts as 0.8 s (inside), 0.6 s as 1.2 s.
        _rep(2.0, {"a": 0.4, "b": 0.6}),
    ]
    values = run.end_to_end("hunt", reps)
    assert values["faults_per_min"] == pytest.approx(60.0 * 3 / 2.0)
    assert values["tests_per_s"] == pytest.approx(200 / 6.0)
    assert values["setup_s"] == pytest.approx(0.6)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.TESTS))
def test_output_shape(workload, trace, monkeypatch, capsys):
    # Fewer tests per campaign than the workload's own budget, so the
    # whole matrix runs in well under a minute.
    monkeypatch.setitem(run.TESTS, workload, 150)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out[-3000:]
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = _bench()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
