"""The repository benchmark: closed-loop CODDTest workloads through
``repro.fleet.run_fleet``.

Usage::

    python3 perfbench/run.py --workload hunt|diff|fleet --seed N \
        --seconds S --trace 0|1

Each repetition runs one campaign in a fresh interpreter
(``perfbench/rep.py``), so it pays what a ``coddtest`` invocation pays.
After an untimed warm-up, repetitions run back to back until
``--seconds`` have passed (at least :data:`MIN_REPS`).  ``--trace 0``
runs a new campaign in each repetition and reports the end-to-end
metrics, with times scaled to a reference speed measured between
repetitions (:func:`reference_seconds`); ``--trace 1`` runs each
campaign untraced and then traced and reports the per-layer metrics.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a correctness check
fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import sqlite3
import subprocess
import sys
import time

from benchspans import span_metric_names
from benchstats import median, supported_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

#: Tests per repetition: enough that a campaign finds most of the faults
#: its workload can reach, few enough that a run spans several campaigns.
TESTS = {"hunt": 1000, "diff": 1500, "fleet": 600}

#: ``faults_per_min`` counts only the faults first reported within this
#: many (scaled) seconds of the start of ``run_fleet``: an early part of
#: the campaign, where the number of distinct faults found is still
#: rising, so finding faults sooner raises the metric as well as running
#: tests faster.  By the end of a campaign most reachable faults are
#: found whatever the speed.
FAULT_WINDOW = {"hunt": 0.3, "diff": 0.1, "fleet": 0.25}

#: Fewest campaigns a run measures, without and with tracing.
MIN_REPS = {0: 4, 1: 2}

#: A repetition that takes longer than this is killed and counts as
#: failed.
REP_TIMEOUT = 60.0

#: Typical duration of :func:`reference_seconds` on the machine the
#: baseline was measured on.  Timings are scaled by this over the
#: reference time measured around each repetition.
REFERENCE_NOMINAL_S = 0.35

#: No new repetition starts this long after the run began, whatever
#: ``--seconds`` says, so a run ends well within three minutes.
HARD_STOP = 120.0

END_TO_END = (
    ("tests_per_s", "tests/s"),
    ("unique_plans_per_s", "plans/s"),
    ("faults_per_min", "faults/min"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Layer-coverage predictions checked by every traced run: for each
#: workload, counters that must be zero (a bypassed layer) or above
#: zero (an exercised one).
PREDICTIONS = {
    "hunt": {
        "adapters.sqlite3_calls": False,
        "runner.reduce_calls": False,
        "guidance.policy_calls": False,
    },
    "diff": {"core.fold_calls": False, "guidance.policy_calls": False},
    "fleet": {"guidance.policy_calls": True, "runner.reduce_calls": True},
}


def per_layer_names() -> "list[str]":
    return span_metric_names() + ["failed_share", "trace_overhead_share"]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its suffix."""
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith(("_rate", "_share")):
        return "ratio"
    return "count"


class RepFailed(Exception):
    pass


def reference_seconds() -> float:
    """Duration of a fixed workload that uses only the standard library:
    build, shuffle, index, probe and sort 60,000 small dicts.

    The machine's speed drifts by up to a factor of two over tens of
    seconds (noisy neighbours on shared cores and caches).  This workload
    allocates and chases pointers like the program under test, so it
    slows down with it, while no change to the program can move it.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    rows = [{"id": i, "name": f"n{i}", "v": (i * 7919) % 1000} for i in range(60000)]
    rng.shuffle(rows)
    index = {row["name"]: row for row in rows}
    total = 0
    for _ in range(60000):
        total += index[f"n{rng.randrange(60000)}"]["v"]
    rows.sort(key=lambda row: (row["v"], row["id"]))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def source_digest(root: str) -> str:
    """SHA-256 over the path and bytes of every file of the program and
    the benchmark: the identity of the tree actually measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".pyc", ".pyo")):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _git(root: str, *args: str) -> "str | None":
    try:
        out = subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance(root: str) -> dict:
    """What was measured, and where.

    ``source_sha256`` is computed from the files themselves, so it names
    the measured tree even before it is committed.  ``commit`` is HEAD
    when *root* is the top of a git checkout (None otherwise), and
    ``dirty`` says the program or benchmark files differ from HEAD --
    then the numbers belong to the digest, not to that commit.
    """
    top = _git(root, "rev-parse", "--show-toplevel")
    head = status = None
    if top is not None and os.path.realpath(top.strip()) == os.path.realpath(root):
        head = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    return {
        "source_sha256": source_digest(root),
        "commit": head.strip() if head else None,
        "dirty": None if head is None or status is None else bool(status.strip()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sqlite_version": sqlite3.sqlite_version,
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """One repetition in a fresh interpreter; raises :class:`RepFailed`."""
    ship_dir = os.path.join(WORK, f"ship-{workload}-{os.getpid()}")
    shutil.rmtree(ship_dir, ignore_errors=True)
    os.makedirs(ship_dir)
    spec = {
        "workload": workload,
        "seed": seed,
        "tests": TESTS[workload],
        "trace": trace,
        "ship_dir": ship_dir,
        "spans_out": os.path.join(WORK, f"{workload}.spans.jsonl"),
    }
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "CODDTEST_CAPVEC_DIR")
    }
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        # The repetition's fleet workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if timed_out:
            proc.communicate()
        proc.wait()
        shutil.rmtree(ship_dir, ignore_errors=True)
    if timed_out:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT:.0f}s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(err.strip()[-2000:] or f"exit code {proc.returncode}")
    starts = []
    first_report: dict = {}
    for line in lines:
        if line.startswith("campaign_start "):
            starts.append(float(line.split()[1]))
        elif line.startswith("fault_found "):
            _, fault, at = line.split()
            first_report[fault] = min(float(at), first_report.get(fault, float("inf")))
    try:
        rep = json.loads(lines[-1])
    except ValueError:
        raise RepFailed(f"no result line: {lines[-1][:200]!r}") from None
    if not starts:
        raise RepFailed("no campaign started")
    rep["setup_s"] = min(starts) - spawned
    # Seconds from the start of run_fleet to the first report of each
    # detected fault, in any process of the repetition.
    rep["fault_times"] = {
        fault: first_report[fault] - rep["start"]
        for fault in rep["faults"]
        if fault in first_report
    }
    rep["scale"] = 1.0
    rep["trace"] = trace
    rep["seed"] = seed
    return rep


def end_to_end(workload: str, reps) -> dict:
    """Rates are totals over the run (each repetition is another
    campaign, so a median would pick one campaign's content); set-up and
    memory are medians.  Times are scaled to the nominal reference speed
    by each repetition's ``scale``."""
    wall = sum(r["wall"] * r["scale"] for r in reps)
    window = FAULT_WINDOW[workload]
    early = sum(
        1
        for r in reps
        for at in r["fault_times"].values()
        if at * r["scale"] <= window
    )
    return {
        "tests_per_s": sum(r["tests"] for r in reps) / wall,
        "unique_plans_per_s": sum(r["plans"] for r in reps) / wall,
        "faults_per_min": 60.0 * early / (window * len(reps)),
        "setup_s": median(r["setup_s"] * r["scale"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_kib"] / 1024.0 for r in reps),
    }


def per_layer(plain, traced) -> dict:
    out = {
        name: median(r["layers"][name] for r in traced)
        for name in span_metric_names()
    }
    skipped = sum(r["skipped"] for r in plain)
    out["failed_share"] = skipped / sum(r["tests"] + r["skipped"] for r in plain)
    # Repetition i of each list ran the same campaign.
    out["trace_overhead_share"] = median(
        t["wall"] / p["wall"] for p, t in zip(plain, traced)
    ) - 1.0
    return out


def check(workload: str, reps, layers: "dict | None") -> "list[str]":
    """Correctness problems of a run; empty when it is correct."""
    problems = []
    witnesses: dict = {}
    for rep in reps:
        witnesses.setdefault(rep["seed"], set()).add(rep["witness"])
        if workload in ("hunt", "fleet") and not rep["faults"]:
            problems.append(f"campaign {rep['seed']} detected no injected fault")
        untimed = sorted(set(rep["faults"]) - set(rep["fault_times"]))
        if untimed:
            problems.append(f"campaign {rep['seed']}: no first report seen for {untimed}")
        if workload == "fleet":
            # A logic finding without ground-truth faults is
            # "unverifiable" by design (replay needs its original
            # oracle); every cluster that can be replayed must reproduce.
            verdicts = rep["verdicts"]
            wrong = {k: v for k, v in verdicts.items() if k not in ("reproduces", "unverifiable")}
            if wrong or not verdicts.get("reproduces"):
                problems.append(f"campaign {rep['seed']} replays as {verdicts}")
    for seed, digests in sorted(witnesses.items()):
        if len(digests) != 1:
            problems.append(f"campaign {seed} witness differs across repetitions")
    if layers is not None:
        for name, positive in PREDICTIONS[workload].items():
            if (layers[name] > 0) != positive:
                want = "above 0" if positive else "0"
                problems.append(f"{name} is {layers[name]}, predicted {want}")
    return problems


def campaign_seed(seed: int, index: int) -> int:
    """Seed of the run's *index*-th campaign."""
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TESTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src", file=sys.stderr)
        return 2

    began = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    tests = TESTS[args.workload]
    info = provenance(ROOT)
    print(f"perfbench provenance {json.dumps(info, sort_keys=True)}")
    print(f"perfbench {args.workload} seed={args.seed} tests/rep={tests} trace={args.trace}")

    plain: list = []
    traced: list = []
    attempted = failed = 0
    problems: list = []
    modes = (False, True) if args.trace else (False,)
    try:
        # The warm-up compiles bytecode and fills the OS cache; it runs
        # the first campaign, so the first timed repetition checks it.
        warmup = run_rep(args.workload, campaign_seed(args.seed, 0), False)
        reference = reference_seconds()
        index = 0
        while True:
            seed = campaign_seed(args.seed, index)
            for mode in modes:
                rep = run_rep(args.workload, seed, mode)
                (traced if mode else plain).append(rep)
                attempted += rep["tests"] + rep["skipped"]
                print(
                    f"  rep campaign={seed} {'traced' if mode else 'untraced'}: "
                    f"{rep['tests']} tests, {rep['skipped']} without verdict, "
                    f"{rep['plans']} plans, faults first reported at "
                    f"{sorted(round(t, 3) for t in rep['fault_times'].values())}s, "
                    f"verdicts {rep['verdicts']}, wall {rep['wall']:.3f}s, "
                    f"setup {rep['setup_s']:.3f}s, witness {rep['witness'][:12]}",
                    flush=True,
                )
            if not args.trace:
                after = reference_seconds()
                rep["scale"] = REFERENCE_NOMINAL_S / ((reference + after) / 2)
                reference = after
                print(f"    reference {after:.3f}s, scale {rep['scale']:.3f}")
            index += 1
            elapsed = time.perf_counter() - began
            if len(plain) >= MIN_REPS[args.trace] and (
                elapsed >= args.seconds or elapsed >= HARD_STOP
            ):
                break
    except RepFailed as exc:
        attempted += tests
        failed += tests
        problems.append(f"repetition failed: {exc}")

    metrics: dict = {}
    layers = None
    if plain and (traced or not args.trace):
        if args.trace:
            layers = per_layer(plain, traced)
            metrics = {n: {"value": layers[n], "unit": unit_of(n)} for n in per_layer_names()}
            n = int(layers["oracles.test_samples"])
            print(
                f"  oracles.test_ms_p99 rests on {n} tests (highest supported "
                f"percentile: {supported_percentile(n)}); failed_share counts "
                f"{sum(r['skipped'] for r in plain)} of "
                f"{sum(r['tests'] + r['skipped'] for r in plain)} attempted tests"
            )
        else:
            values = end_to_end(args.workload, plain)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
            unscaled = end_to_end(args.workload, [dict(r, scale=1.0) for r in plain])
            print("  unscaled: " + ", ".join(
                f"{n}={unscaled[n]:.6g}" for n, _ in END_TO_END if n != "peak_rss_mb"
            ))
        problems += check(args.workload, [warmup] + plain + traced, layers)
    elif not problems:
        problems.append("no repetition completed")

    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  correct: {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
